// Process-wide metrics registry for the restoration pipeline.
//
// The hot path (ThreadPool -> BatchRestorer -> TreeCache -> incremental
// repair -> decompose) runs on many threads at once; a single shared
// counter would serialize them on one cache line. The registry therefore
// shards every counter and histogram across a fixed set of stripes, and a
// thread picks its stripe once (round-robin at first touch, stored
// thread-locally), so steady-state increments are relaxed atomic adds on a
// cache line no other thread is writing. Scrapes — snapshot(), to_json(),
// to_text() — merge the stripes; totals are exact once the incrementing
// threads have been joined (or otherwise synchronized with the scraper),
// and monotonically approach the exact value while they still run.
//
// Metrics are identified by name and registered on first use; looking up
// the same name twice returns handles to the same underlying cells, so
// instrumentation sites can each resolve their own handle (typically once,
// in a function-local static) without coordination. Handles are trivially
// copyable and remain valid for the registry's lifetime; metrics are never
// unregistered.
//
// Compile-time kill switch: building with -DRBPC_OBS_DISABLED (CMake
// option RBPC_OBS_DISABLED) turns every increment/record into a no-op the
// optimizer deletes, while the registration and export API stays intact so
// callers need no #ifdefs. Use `if constexpr (obs::kObsEnabled)` to gate
// larger instrumentation blocks out of hot loops.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace rbpc::obs {

/// True unless the build compiled observability out (RBPC_OBS_DISABLED).
inline constexpr bool kObsEnabled =
#ifdef RBPC_OBS_DISABLED
    false;
#else
    true;
#endif

namespace detail {

/// Stripes per metric. More concurrently incrementing threads than this
/// start sharing stripes (round-robin assignment), which costs contention
/// but never correctness.
inline constexpr std::size_t kStripes = 16;

/// The calling thread's stripe, assigned round-robin on first use.
std::size_t stripe_index();

/// One cache line per stripe so increments on different stripes never
/// false-share.
struct alignas(64) PaddedCell {
  std::atomic<std::uint64_t> value{0};
};

struct CounterCells {
  PaddedCell stripes[kStripes];

  void add(std::uint64_t n) {
    stripes[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const PaddedCell& c : stripes)
      sum += c.value.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (PaddedCell& c : stripes) c.value.store(0, std::memory_order_relaxed);
  }
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};

/// A histogram's per-stripe row: bucket counts plus the running sum of
/// recorded values. Rows are cache-line aligned so two threads on
/// different stripes never write the same line.
struct alignas(64) HistogramRow {
  std::atomic<std::uint64_t> buckets[LatencyHistogram::kBuckets] = {};
  std::atomic<std::uint64_t> sum{0};
};

/// Last exemplar observed per bucket: a (request id, value) pair recorded
/// best-effort with relaxed stores (last writer wins; a torn pair across
/// the two words is possible and harmless — exemplars are debugging
/// pointers, not counters). id 0 means "no exemplar".
struct ExemplarCell {
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint64_t> value{0};
};

struct HistogramCells {
  HistogramRow rows[kStripes];
  ExemplarCell exemplars[LatencyHistogram::kBuckets];

  void record(std::uint64_t value, std::uint64_t weight) {
    HistogramRow& row = rows[stripe_index()];
    row.buckets[LatencyHistogram::bucket_of(value)].fetch_add(
        weight, std::memory_order_relaxed);
    row.sum.fetch_add(value * weight, std::memory_order_relaxed);
  }
  void record_exemplar(std::uint64_t value, std::uint64_t id) {
    ExemplarCell& cell = exemplars[LatencyHistogram::bucket_of(value)];
    cell.value.store(value, std::memory_order_relaxed);
    cell.id.store(id, std::memory_order_relaxed);
  }
  LatencyHistogram snapshot() const;
  void reset();
};

}  // namespace detail

/// Monotone counter handle. Default-constructed handles are inert no-ops,
/// so instrumented code never needs a null check.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) {
    if constexpr (kObsEnabled) {
      if (cells_ != nullptr) cells_->add(n);
    } else {
      (void)n;
    }
  }
  void inc() { add(1); }

  /// Merged total across all stripes (exact once writers are quiesced).
  std::uint64_t value() const {
    if constexpr (kObsEnabled) {
      return cells_ != nullptr ? cells_->total() : 0;
    } else {
      return 0;
    }
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCells* cells) : cells_(cells) {}
  detail::CounterCells* cells_ = nullptr;
};

/// Point-in-time value (e.g. cache residency). Set/add semantics on a
/// single atomic — gauges are not hot-path metrics.
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) {
    if constexpr (kObsEnabled) {
      if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  void add(std::int64_t delta) {
    if constexpr (kObsEnabled) {
      if (cell_ != nullptr)
        cell_->value.fetch_add(delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  /// Records v if it exceeds the current value (monotone high-water mark).
  void set_max(std::int64_t v);

  std::int64_t value() const {
    if constexpr (kObsEnabled) {
      return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed)
                              : 0;
    } else {
      return 0;
    }
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket latency/value histogram handle (power-of-two buckets; see
/// util/histogram.hpp). The restoration pipeline's convention is
/// microseconds for span durations; other units are allowed and should be
/// named in the metric (e.g. spf.repair.orphaned counts nodes).
class Histogram {
 public:
  Histogram() = default;

  void record(std::uint64_t value, std::uint64_t weight = 1) {
    if constexpr (kObsEnabled) {
      if (cells_ != nullptr) cells_->record(value, weight);
    } else {
      (void)value;
      (void)weight;
    }
  }

  /// record() plus attaching `id` as the bucket's exemplar (the request id
  /// of a concrete occurrence that landed in that bucket — see
  /// obs/request_trace.hpp). id 0 records no exemplar.
  void record_with_exemplar(std::uint64_t value, std::uint64_t id,
                            std::uint64_t weight = 1) {
    if constexpr (kObsEnabled) {
      if (cells_ != nullptr) {
        cells_->record(value, weight);
        if (id != 0) cells_->record_exemplar(value, id);
      }
    } else {
      (void)value;
      (void)id;
      (void)weight;
    }
  }

  /// Merged snapshot across all stripes.
  LatencyHistogram snapshot() const {
    if constexpr (kObsEnabled) {
      return cells_ != nullptr ? cells_->snapshot() : LatencyHistogram{};
    } else {
      return LatencyHistogram{};
    }
  }
  std::uint64_t count() const { return snapshot().count(); }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCells* cells) : cells_(cells) {}
  detail::HistogramCells* cells_ = nullptr;
};

/// The registry. Use MetricsRegistry::global() for the process-wide
/// instance every RBPC_TRACE_SPAN and built-in pipeline metric reports to;
/// separate instances exist only so tests can scrape in isolation.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or registers the named metric. Registration takes the registry
  /// mutex; call sites on hot paths should resolve their handle once (a
  /// function-local static) and reuse it.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Merged point-in-time view of every registered metric, sorted by name.
  struct Snapshot {
    struct CounterSample {
      std::string name;
      std::uint64_t value;
    };
    struct GaugeSample {
      std::string name;
      std::int64_t value;
    };
    struct Exemplar {
      std::uint64_t id = 0;  ///< 0 = bucket has no exemplar
      std::uint64_t value = 0;
    };
    struct HistogramSample {
      std::string name;
      LatencyHistogram hist;
      /// Per-bucket exemplars, index-aligned with the histogram's buckets
      /// (empty when the histogram never recorded one).
      std::vector<Exemplar> exemplars;
    };
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
    /// {name: {count, sum, mean, p50, p90, p99, max, buckets: [[lo, hi,
    /// count], ...]}}}. Quantiles are bucket upper bounds; `max` is the
    /// highest nonempty bucket's upper bound.
    std::string to_json() const;
    /// One `name value` line per counter/gauge plus `name/count`,
    /// `name/p50` ... lines per histogram — grep-friendly.
    std::string to_text() const;
  };
  Snapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  std::string to_text() const { return snapshot().to_text(); }

  /// Zeroes every registered metric (names stay registered, handles stay
  /// valid). Not linearizable against concurrent increments — quiesce
  /// writers first; intended for bench/test setup.
  void reset();

 private:
  mutable std::mutex mu_;  // guards the maps; cells are internally atomic
  std::map<std::string, std::unique_ptr<detail::CounterCells>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>, std::less<>>
      gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCells>, std::less<>>
      histograms_;
};

/// Per-instance counter mirrored into a process-wide registry counter:
/// inc() bumps both private striped cells (read back by the owning object's
/// accessors, e.g. TreeCache::hits()) and the shared named metric (read by
/// scrapes). This is the shim that lets TreeCache and BatchRestorer keep
/// their historical per-instance accessors as thin views while all counts
/// flow through one registry. The local count is striped like the registry
/// cells, so a hot per-instance counter (TreeCache hits) costs each thread
/// an add on its own cache line; it always works, even when the build
/// disables the registry mirror.
class InstanceCounter {
 public:
  explicit InstanceCounter(Counter global) : global_(global) {}

  void add(std::uint64_t n = 1) {
    local_.add(n);
    global_.add(n);
  }
  void inc() { add(1); }
  /// Exact once the incrementing threads are synchronized with the reader.
  std::uint64_t value() const { return local_.total(); }

 private:
  detail::CounterCells local_;
  Counter global_;
};

}  // namespace rbpc::obs
