#include "obs/exposition.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "util/error.hpp"

namespace rbpc::obs {

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A metric name may not be empty or start with a digit: lead with '_'.
  if (name.empty() || (name.front() >= '0' && name.front() <= '9')) {
    out.push_back('_');
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

void append_histogram(std::ostringstream& os,
                      const MetricsRegistry::Snapshot::HistogramSample& h) {
  const std::string name = prometheus_name(h.name);
  os << "# TYPE " << name << " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t c = h.hist.bucket_count(b);
    if (c == 0) continue;
    cumulative += c;
    // The last bucket is unbounded; fold it into the +Inf line below
    // instead of printing its sentinel upper bound as a finite le.
    if (b + 1 >= LatencyHistogram::kBuckets) break;
    os << name << "_bucket{le=\"" << LatencyHistogram::bucket_hi(b) << "\"} "
       << cumulative;
    if (b < h.exemplars.size() && h.exemplars[b].id != 0) {
      // OpenMetrics-style exemplar: a request id that landed in this
      // bucket, resolvable in the flight-recorder dump.
      os << " # {request_id=\"" << h.exemplars[b].id << "\"} "
         << h.exemplars[b].value;
    }
    os << "\n";
  }
  os << name << "_bucket{le=\"+Inf\"} " << h.hist.count() << "\n"
     << name << "_sum " << h.hist.sum() << "\n"
     << name << "_count " << h.hist.count() << "\n";
}

}  // namespace

std::string to_prometheus(const MetricsRegistry::Snapshot& snap) {
  std::ostringstream os;
  for (const auto& c : snap.counters) {
    const std::string name = prometheus_name(c.name) + "_total";
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) append_histogram(os, h);
  return os.str();
}

ExpositionServer::ExpositionServer(ExpositionOptions options)
    : options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error("ExpositionServer: socket() failed: " +
                std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("ExpositionServer: bind/listen on port " +
                std::to_string(options_.port) + " failed: " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
}

ExpositionServer::~ExpositionServer() { stop(); }

void ExpositionServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ExpositionServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    // One short request per connection (scrape clients close anyway).
    char buf[2048];
    std::string request;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
      if (request.find("\r\n") != std::string::npos ||
          request.find('\n') != std::string::npos ||
          request.size() >= 8192) {
        break;
      }
    }
    const std::string response = respond(request);
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::send(fd, response.data() + off, response.size() - off, 0);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    // Count the scrape before the close: the client sees the reply end at
    // the close, and by then the count must already include it.
    scrapes_.fetch_add(1, std::memory_order_release);
    ::close(fd);
  }
}

std::string ExpositionServer::respond(const std::string& request) const {
  // Parse "GET <path> ..." from the first line; anything else is a 404.
  std::string path;
  if (request.rfind("GET ", 0) == 0) {
    const std::size_t end = request.find(' ', 4);
    path = request.substr(4, end == std::string::npos ? std::string::npos
                                                      : end - 4);
  }

  const MetricsRegistry& reg = options_.registry != nullptr
                                   ? *options_.registry
                                   : MetricsRegistry::global();
  std::string body;
  std::string type = "text/plain; version=0.0.4; charset=utf-8";
  bool found = true;
  if (path == "/metrics" || path == "/") {
    if (options_.slo != nullptr) options_.slo->tick();
    body = to_prometheus(reg.snapshot());
  } else if (path == "/metrics.json" || path == "/json") {
    if (options_.slo != nullptr) options_.slo->tick();
    body = reg.to_json();
    type = "application/json";
  } else if (path == "/flight" && options_.flight != nullptr) {
    body = options_.flight->dump_json("scrape");
    type = "application/json";
  } else if (path == "/slo" && options_.slo != nullptr) {
    options_.slo->tick();
    body = options_.slo->to_json();
    type = "application/json";
  } else {
    found = false;
    body = "not found\n";
  }

  std::ostringstream os;
  os << (found ? "HTTP/1.1 200 OK" : "HTTP/1.1 404 Not Found") << "\r\n"
     << "Content-Type: " << type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

}  // namespace rbpc::obs
