// Shared observability plumbing for the bench drivers.
//
// Every bench that links rbpc_obs accepts the same three flags:
//
//   --metrics-json PATH   write a MetricsRegistry JSON scrape at exit
//                         ("-" = stdout, so it can be piped to jq)
//   --trace-out PATH      enable the tracer and write Chrome trace-event
//                         JSON at exit (open in chrome://tracing or
//                         https://ui.perfetto.dev)
//   --obs-check LIST      comma-separated metric names that must exist and
//                         be nonzero in the final scrape; any absent or
//                         zero metric fails the run (exit 1). This is the
//                         CI guard against silently dead instrumentation:
//                         a span site that never executes registers no
//                         histogram at all, and --obs-check turns that
//                         absence into a red build.
//
// Machine-readable artifacts go to stdout only when explicitly requested
// with "-"; benches that use this helper must keep their human-readable
// narration on stderr so the two never interleave.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace rbpc::bench {

struct ObsCli {
  std::string metrics_json;  ///< --metrics-json ("" = off, "-" = stdout)
  std::string trace_out;     ///< --trace-out ("" = off, "-" = stdout)
  std::string check;         ///< --obs-check comma-separated names

  /// Parses the flags and, when --trace-out is given, enables the tracer
  /// (call before the measured work so spans are captured).
  static ObsCli from_args(const CliArgs& args) {
    ObsCli o;
    o.metrics_json = args.get_string("metrics-json", "");
    o.trace_out = args.get_string("trace-out", "");
    o.check = args.get_string("obs-check", "");
    if (!o.trace_out.empty()) obs::Tracer::global().enable();
    return o;
  }

  /// Writes the requested artifacts and runs --obs-check against a final
  /// scrape. Returns the process exit code contribution: 0 on success, 1
  /// when an artifact could not be written or a checked metric is absent
  /// or zero.
  int finish() const {
    int rc = 0;
    const obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::global().snapshot();
    if (!metrics_json.empty()) {
      rc |= write_artifact(metrics_json, snap.to_json(), "metrics");
    }
    if (!trace_out.empty()) {
      obs::Tracer& tracer = obs::Tracer::global();
      rc |= write_artifact(trace_out, tracer.to_chrome_json(), "trace");
      if (tracer.dropped() > 0) {
        std::cerr << "note: " << tracer.dropped()
                  << " trace events dropped (per-thread buffer cap)\n";
      }
    }
    if (!check.empty()) {
      std::stringstream names(check);
      std::string name;
      while (std::getline(names, name, ',')) {
        if (name.empty()) continue;
        if (!metric_nonzero(snap, name)) {
          std::cerr << "obs-check: metric '" << name
                    << "' is absent or has no samples\n";
          rc = 1;
        }
      }
    }
    return rc;
  }

 private:
  static int write_artifact(const std::string& path, const std::string& body,
                            const char* what) {
    if (path == "-") {
      std::cout << body;
      return 0;
    }
    std::ofstream out(path);
    out << body;
    if (!out) {
      std::cerr << "failed to write " << what << " to " << path << "\n";
      return 1;
    }
    std::cerr << "wrote " << what << " to " << path << "\n";
    return 0;
  }

  static bool metric_nonzero(const obs::MetricsRegistry::Snapshot& snap,
                             const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value > 0;
    }
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.hist.count() > 0;
    }
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value != 0;
    }
    return false;
  }
};

}  // namespace rbpc::bench
