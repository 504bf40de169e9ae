// Scoped tracing spans for the restoration pipeline.
//
//   void TreeCache::compute(...) {
//     RBPC_TRACE_SPAN("spf.repair");
//     ... // timed until the end of the enclosing scope
//   }
//
// A span site does two things when its scope closes:
//
//  * always: records the span's wall-clock duration (microseconds) into
//    the process-wide latency histogram named after the span, so every
//    instrumented phase has quantiles in MetricsRegistry scrapes even when
//    tracing is off;
//
//  * when Tracer::global().enable() has been called: appends a complete
//    ("ph":"X") event to the calling thread's trace buffer. Buffers are
//    per-thread (one uncontended mutex each; flushed into a retired list
//    at thread exit) and export merges them into Chrome trace-event JSON —
//    load the file in chrome://tracing or https://ui.perfetto.dev to see
//    the nested per-thread timeline of a restoration batch.
//
// Span timestamps come from one steady clock, so nesting and cross-thread
// ordering in the exported trace reflect real concurrency. Nested spans on
// the same thread render as a flame graph: the viewer nests complete
// events whose [ts, ts+dur] ranges contain each other.
//
// Cost: ~two steady_clock reads plus one striped histogram record per span
// when tracing is off, one short mutexed append more when it is on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rbpc::obs {

/// Monotonic nanoseconds (steady clock); the time base of all spans.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed span occurrence.
struct TraceEvent {
  const char* name;      ///< the span site's literal (not owned)
  std::uint64_t ts_ns;   ///< start, steady-clock nanoseconds
  std::uint64_t dur_ns;  ///< wall-clock duration
  std::uint32_t tid;     ///< small sequential thread id
};

/// Process-wide trace collector. Disabled by default: spans check one
/// relaxed atomic and skip the buffer entirely. Cap: each thread keeps at
/// most max_events_per_thread() events (default kMaxEventsPerThread,
/// tunable for long-running services); once full, further events are
/// counted as dropped rather than recorded — mirrored into the registry
/// as the obs.trace.dropped counter, with obs.trace.buffered gauging the
/// events currently held — so a forgotten enable() cannot grow trace
/// memory without bound.
class Tracer {
 public:
  static Tracer& global();

  static constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Caps each thread's event buffer (applies to future appends; already
  /// buffered events stay). 0 is clamped to 1.
  void set_max_events_per_thread(std::size_t cap) {
    max_events_.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
  }
  std::size_t max_events_per_thread() const {
    return max_events_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's buffer (registering the
  /// buffer on first use). Called by SpanScope; usable directly for
  /// phases that are not lexical scopes.
  void record(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns);

  /// Copies out every recorded event (live thread buffers + buffers of
  /// exited threads), unsorted. Thread-safe against concurrent record().
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON (the "JSON array" flavor both chrome://tracing
  /// and Perfetto load). Timestamps are microseconds relative to the
  /// earliest recorded event.
  std::string to_chrome_json() const;

  /// Drops every recorded event (buffers stay registered). Quiesce
  /// recording threads for an exact clear.
  void clear();

  /// Events discarded because a thread buffer hit kMaxEventsPerThread.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend struct ThreadTraceBuffer;
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> max_events_{kMaxEventsPerThread};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ / retired_ / next_tid_
  std::vector<struct ThreadTraceBuffer*> buffers_;
  std::vector<TraceEvent> retired_;
  std::uint32_t next_tid_ = 0;
};

/// One timed phase: interns the span name and resolves the backing
/// histogram once (a function-local static in the RBPC_TRACE_SPAN
/// expansion, or a member of an object that times its own stages).
class SpanSite {
 public:
  explicit SpanSite(const char* name)
      : name_(name), hist_(MetricsRegistry::global().histogram(name)) {}

  /// Records one occurrence that ran over [start_ns, end_ns): its duration
  /// into the histogram (microseconds) and, when tracing is enabled, a
  /// trace event on the calling thread. SpanScope calls it at scope exit;
  /// code that already stamps its stage boundaries calls it with those
  /// stamps instead of reading the clock again.
  void record(std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint64_t dur = end_ns - start_ns;
    hist_.record(dur / 1000);
    Tracer& tracer = Tracer::global();
    if (tracer.enabled()) tracer.record(name_, start_ns, dur);
  }

 private:
  const char* name_;
  Histogram hist_;
};

/// RAII scope: measures construction-to-destruction wall time, records it
/// into the site's histogram and (when tracing is enabled) the tracer.
class SpanScope {
 public:
  explicit SpanScope(SpanSite& site) : site_(&site), start_ns_(now_ns()) {}
  ~SpanScope() { site_->record(start_ns_, now_ns()); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanSite* site_;
  std::uint64_t start_ns_;
};

}  // namespace rbpc::obs

#define RBPC_OBS_CONCAT_IMPL(a, b) a##b
#define RBPC_OBS_CONCAT(a, b) RBPC_OBS_CONCAT_IMPL(a, b)
/// Times the rest of the enclosing scope as the named phase. `name` must
/// be a string literal (it is kept by pointer). Multiple spans may open in
/// one scope; they close in reverse order.
#define RBPC_TRACE_SPAN(name)                                              \
  static ::rbpc::obs::SpanSite RBPC_OBS_CONCAT(rbpc_span_site_,            \
                                               __LINE__){name};            \
  ::rbpc::obs::SpanScope RBPC_OBS_CONCAT(rbpc_span_scope_, __LINE__) {     \
    RBPC_OBS_CONCAT(rbpc_span_site_, __LINE__)                             \
  }
