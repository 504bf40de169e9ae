// Flight recorder: lock-free per-worker ring buffers of the last N
// RerouteRecords, dumpable as JSON evidence when something goes wrong.
//
// The service keeps one ring per reroute worker. A worker publishes each
// finished RerouteRecord into its own ring — single writer per ring, so
// publication is a seqlock write: mark the slot's sequence odd (write in
// progress), store the record's packed words with relaxed atomic stores,
// mark the sequence even-with-generation. No mutex, no allocation, no
// contention on the warm path; cost is ~kWords relaxed stores (measured by
// bench/micro_perf BM_RerouteRecordCapture).
//
// collect() can run at any time — a scrape endpoint hit or an invariant
// trip mid-churn. It reads each slot's sequence, copies the words, and
// re-reads the sequence: a torn read (writer lapped the reader) changes
// the sequence and the slot is retried a few times, then skipped. The dump
// is best-effort evidence, not an audit log; records lost to lapping were
// by definition not among the most recent N.
//
// dump_json() bundles the rings with the last kTraceTail trace spans (when
// the Tracer is enabled) and the reason for the dump — every red chaos /
// churn CI run uploads one of these, so the artifact names the offending
// request ids and the ladder rungs they reached.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request_trace.hpp"

namespace rbpc::obs {

class FlightRecorder {
 public:
  /// Trace events appended to a dump (newest kept) when tracing is on.
  static constexpr std::size_t kTraceTail = 256;

  /// `workers` single-writer rings (>= 1 enforced) of `ring_size` records
  /// each (rounded up to a power of two, minimum 2). All memory is
  /// allocated here; publish() never allocates.
  explicit FlightRecorder(std::size_t workers, std::size_t ring_size = 64);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t workers() const { return num_rings_; }
  std::size_t ring_size() const { return mask_ + 1; }

  /// Publishes `rec` into worker `worker`'s ring (worker < workers()),
  /// overwriting the oldest record once the ring is full. Wait-free; the
  /// caller must be the only publisher for that worker index.
  void publish(std::size_t worker, const RerouteRecord& rec);

  /// Total records ever published (including overwritten ones).
  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every live record across all rings, oldest first by
  /// done_ns. Safe against concurrent publish(); slots torn by a racing
  /// writer are skipped (counted in torn_reads()).
  std::vector<RerouteRecord> collect() const;

  /// Slots skipped by collect() because a writer lapped the read.
  std::uint64_t torn_reads() const {
    return torn_.load(std::memory_order_relaxed);
  }

  /// JSON dump: {"reason": ..., "records": [...], "trace_tail": [...]}.
  /// Each record carries its request id, demand, endpoints, ladder rung
  /// (name + number), per-stage timestamps and derived stage durations.
  std::string dump_json(std::string_view reason) const;

  /// Writes dump_json() to `path`; returns false (and logs to stderr) when
  /// the file cannot be written.
  bool dump_to_file(const std::string& path, std::string_view reason) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 = empty; odd = mid-write
    std::atomic<std::uint64_t> words[RerouteRecord::kWords] = {};
  };
  struct alignas(64) Ring {
    std::atomic<std::uint64_t> head{0};  ///< next logical slot to write
    std::unique_ptr<Slot[]> slots;
  };

  void collect_ring(const Ring& ring, std::vector<RerouteRecord>& out) const;

  std::size_t mask_ = 0;  ///< ring_size - 1 (power of two)
  std::size_t num_rings_ = 0;
  std::unique_ptr<Ring[]> rings_;
  std::atomic<std::uint64_t> published_{0};
  mutable std::atomic<std::uint64_t> torn_{0};
};

}  // namespace rbpc::obs
