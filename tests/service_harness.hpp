// Shared harness for the restoration-service suites and benches: seeded
// demand sets, the serial ground truth every service run must reach, and a
// minimal HTTP client for the scrape endpoint.
//
// Header-only and free of gtest, so the service benches (service_churn,
// service_restart), which add tests/ to their include path, compare
// against the same ground truth as the gtest suites. gtest expectations
// over these tables live in service_expect.hpp.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "service/service.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "util/rng.hpp"

namespace rbpc::testing {

/// `count` demands with endpoints drawn uniformly from `rng` (self-pairs
/// redrawn), so a fixed seed always yields the same demand set.
inline std::vector<service::Demand> random_demands(const graph::Graph& g,
                                                   std::size_t count,
                                                   Rng& rng) {
  std::vector<service::Demand> demands;
  while (demands.size() < count) {
    const auto s = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    const auto t = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    demands.push_back(service::Demand{s, t});
  }
  return demands;
}

/// The ground truth: a serial source-RBPC restoration of every demand
/// against the final mask — the table the service must reach exactly.
inline std::vector<core::Restoration> serial_replay(
    const graph::Graph& g, spf::Metric metric,
    const std::vector<service::Demand>& demands,
    const graph::FailureMask& mask) {
  spf::DistanceOracle oracle(g, graph::FailureMask{}, metric);
  core::CanonicalBaseSet base(oracle);
  std::vector<core::Restoration> out;
  out.reserve(demands.size());
  for (const service::Demand& d : demands) {
    out.push_back(core::source_rbpc_restore(base, d.src, d.dst, mask));
  }
  return out;
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (headers + body), empty on connect failure.
inline std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace rbpc::testing
