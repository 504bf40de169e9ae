// SLO tracking over the registry's latency histograms.
//
// The paper's whole claim is restoration *speed*; this unit makes speed an
// enforceable objective instead of a number someone eyeballs in a bench
// JSON. An SloTracker watches named registry histograms (e.g.
// svc.restore.latency) and gauges (e.g. svc.no_route / svc.demands) and
// evaluates objectives against a rolling window:
//
//  * quantile objectives — "windowed p99 of svc.restore.latency stays
//    under 50 ms". Each tick() diffs the histogram against the previous
//    tick's snapshot (the fixed power-of-two bucket layout makes the
//    difference exact bucket-wise) and merges the last kWindowTicks
//    interval deltas into the windowed view, so an old storm ages out
//    instead of polluting the quantile forever. Quantiles inherit the
//    bucket bound documented in util/histogram.hpp: the reported value is
//    >= the true quantile and < 2x it (for true values >= 1).
//  * ratio objectives — "no-route fraction stays under 1%": a numerator
//    gauge over a denominator gauge, evaluated point-in-time.
//
// Every tick() exports, per objective o:
//
//   slo.<o>.value        current windowed quantile (us) / ratio (per-mille)
//   slo.<o>.objective    the configured threshold, same unit
//   slo.<o>.burn_pm      error-budget burn rate, per-mille of budget: for
//                        quantile objectives, (fraction of windowed samples
//                        over the threshold) / (1 - q) * 1000 — 1000 means
//                        burning exactly the budget, >1000 means violating
//                        the objective's long-run promise
//   slo.<o>.breached     0/1
//
// plus one shared `slo.breach` counter bumped once per breached objective
// per tick — the alert edge a scraper can rate() on, and the exit-code
// gate bench/service_churn enforces.
//
// The tracker is driven, not threaded: call tick() from wherever cadence
// comes from (the exposition server ticks before each scrape; benches tick
// once at the end of the run, making the first window the whole run).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/histogram.hpp"

namespace rbpc::obs {

/// "quantile(q) of `histogram` must stay <= threshold" (histogram units,
/// microseconds for the pipeline's latency histograms).
struct SloObjective {
  std::string name;       ///< short slug, lands in slo.<name>.* metrics
  std::string histogram;  ///< source histogram metric name
  double quantile = 0.99; ///< tracked quantile in (0, 1)
  std::uint64_t threshold = 0;  ///< objective upper bound (histogram units)
};

/// "numerator gauge / denominator gauge must stay <= max_per_mille/1000".
struct SloRatioObjective {
  std::string name;
  std::string numerator;    ///< gauge name
  std::string denominator;  ///< gauge name (<=0 denominator: ratio is 0)
  std::uint64_t max_per_mille = 0;  ///< objective, per-mille
};

class SloTracker {
 public:
  /// Interval deltas merged into the rolling window.
  static constexpr std::size_t kWindowTicks = 6;

  /// Objectives are fixed at construction; `registry` must outlive the
  /// tracker (it is both the sample source and the slo.* export target).
  SloTracker(MetricsRegistry& registry, std::vector<SloObjective> objectives,
             std::vector<SloRatioObjective> ratios = {});

  /// Advances the window one tick, re-evaluates every objective, exports
  /// the slo.* metrics. Thread-safe (serialized internally). Returns the
  /// number of objectives currently breached.
  std::size_t tick();

  /// Objectives breached on the most recent tick.
  std::size_t last_breached() const;
  /// Cumulative breach count across all ticks (mirrors the slo.breach
  /// counter).
  std::uint64_t total_breaches() const;

  struct Status {
    std::string name;
    std::uint64_t value = 0;      ///< windowed quantile / ratio per-mille
    std::uint64_t objective = 0;  ///< threshold, same unit
    std::uint64_t burn_pm = 0;    ///< budget burn rate, per-mille
    bool breached = false;
  };
  /// Per-objective status from the most recent tick() (empty before the
  /// first).
  std::vector<Status> status() const;
  /// {"objectives": [{name, value, objective, burn_pm, breached}, ...]}.
  std::string to_json() const;

 private:
  struct QuantileState {
    SloObjective objective;
    LatencyHistogram last;                 ///< cumulative as of last tick
    std::deque<LatencyHistogram> window;   ///< last kWindowTicks deltas
    Gauge value_g, objective_g, burn_g, breached_g;
  };
  struct RatioState {
    SloRatioObjective objective;
    Gauge value_g, objective_g, breached_g;
  };

  MetricsRegistry& registry_;
  mutable std::mutex mu_;
  std::vector<QuantileState> quantiles_;
  std::vector<RatioState> ratios_;
  Counter breach_c_;
  std::vector<Status> last_status_;
  std::uint64_t total_breaches_ = 0;
  std::size_t last_breached_ = 0;
};

/// Bucket-wise difference cur - prev of two snapshots of one monotonically
/// growing histogram (prev taken earlier). Exact because the bucket layout
/// is fixed; exposed for tests.
LatencyHistogram histogram_delta(const LatencyHistogram& cur,
                                 const LatencyHistogram& prev);

}  // namespace rbpc::obs
