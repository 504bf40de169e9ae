// Prometheus exposition and the scrape endpoint.
//
// to_prometheus() renders a MetricsRegistry snapshot in the Prometheus
// text exposition format: metric names sanitized to [a-zA-Z_:][a-zA-Z0-9_:]*
// (every '.' in the pipeline's dotted names becomes '_'), counters suffixed
// `_total`, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum`/`_count`, one `# TYPE` comment per family. Buckets carry
// OpenMetrics-style exemplars when the histogram recorded any
// (`... # {request_id="17"} <value>`): the request id of a concrete reroute
// that landed in that bucket, cross-referencing the flight-recorder dump.
//
// ExpositionServer is the opt-in live endpoint: one background thread, a
// plain POSIX TCP listener on 127.0.0.1, no third-party dependencies. It
// answers:
//
//   GET /metrics       Prometheus text (the scrape target)
//   GET /metrics.json  the registry's JSON snapshot (same as --metrics-json)
//   GET /flight        the flight recorder's JSON dump (404 when not wired)
//   GET /slo           the SLO tracker's JSON status (404 when not wired)
//
// Scrapes run concurrently with the service's ingest and reroute threads —
// the registry's striped cells and the flight recorder's seqlock rings are
// built for exactly that — so the endpoint can be curled mid-churn (CI's
// bench-smoke job does). The server binds loopback only: this is an
// introspection plane, not an ingress.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace rbpc::obs {

class FlightRecorder;
class SloTracker;

/// Sanitizes one metric name to the Prometheus charset: invalid characters
/// become '_', a leading digit gets a '_' prefix, empty becomes "_".
std::string prometheus_name(std::string_view name);

/// The snapshot in Prometheus text exposition format (see file comment).
std::string to_prometheus(const MetricsRegistry::Snapshot& snap);

struct ExpositionOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back from ExpositionServer::port()).
  std::uint16_t port = 0;
  /// Registry served by /metrics and /metrics.json; nullptr = the global.
  const MetricsRegistry* registry = nullptr;
  /// Served by /flight when non-null. Must outlive the server.
  const FlightRecorder* flight = nullptr;
  /// Served by /slo when non-null; tick()ed before every scrape so the
  /// rolling window advances with the scrape cadence. Must outlive the
  /// server.
  SloTracker* slo = nullptr;
};

class ExpositionServer {
 public:
  /// Binds and starts the serving thread. Throws rbpc::Error when the
  /// socket cannot be created or bound.
  explicit ExpositionServer(ExpositionOptions options = {});
  /// stop()s and joins.
  ~ExpositionServer();

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// The bound port (the actual one when options.port was 0).
  std::uint16_t port() const { return port_; }
  /// Requests answered so far (any path, including 404s).
  std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_acquire);
  }

  /// Stops accepting and joins the serving thread. Idempotent.
  void stop();

 private:
  void serve_loop();
  std::string respond(const std::string& request_line) const;

  ExpositionOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> scrapes_{0};
  std::thread thread_;
};

}  // namespace rbpc::obs
