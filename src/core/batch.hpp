// Parallel batch restoration engine (the paper's Section-5 workload).
//
// After a failure event, source RBPC restores *every* affected LSP — an
// embarrassingly parallel job the serial loop over source_rbpc_restore
// leaves on the table. BatchRestorer runs the restorations concurrently on
// a fixed-size thread pool with two structural optimizations:
//
//  * per-source SPF sharing — all LSPs rooted at the same source share one
//    spf::shortest_tree under the failure mask instead of re-running SPF
//    per pair. Trees come from a spf::SnapshotTreePool that keeps one view
//    (the current mask); it persists across restore_all calls as long as
//    the mask is unchanged (repeated queries under one failure);
//
//  * incremental SPT repair — the pool's base cache holds each source's
//    *unfailed* tree; per-mask trees are derived from it by
//    spf::repair_tree, which re-relaxes only the region orphaned by the
//    failures instead of re-running Dijkstra over the whole graph. The
//    unfailed trees survive mask changes, so a failure storm pays one full
//    SPF per source total, plus damage-proportional repairs per event;
//
//  * deterministic reduction — result i is written to slot i regardless of
//    which worker computed it, so the output is byte-identical to the
//    serial loop for every thread count (including 1). Determinism rests on
//    the SPF layer's canonical tie-breaking (see DESIGN.md, "Determinism
//    under parallelism"): each Restoration is a pure function of
//    (graph, mask, base set, pair), never of scheduling order.
//
// The decomposition stage still funnels through the caller's BasePathSet
// (whose membership oracles cache trees and are not thread-safe) under a
// mutex; SPF under the mask dominates, so restorations scale while
// decomposition serializes on warm unfailed-network caches. The set stays
// caller-supplied because callers pass oracle-backed AllPairs, Canonical
// and Expanded sets, whose decompositions differ from one another.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "obs/metrics.hpp"
#include "spf/tree_pool.hpp"
#include "util/thread_pool.hpp"

namespace rbpc::core {

/// One source->destination pair to restore under the batch's failure mask.
struct RestoreJob {
  graph::NodeId src = graph::kInvalidNode;
  graph::NodeId dst = graph::kInvalidNode;

  friend bool operator==(const RestoreJob&, const RestoreJob&) = default;
};

struct BatchOptions {
  /// Worker threads; 0 picks hardware_concurrency. 1 still runs on the
  /// (single-worker) pool, exercising the same code path as any other
  /// thread count.
  std::size_t threads = 1;
};

/// Point-in-time snapshot of a BatchRestorer's lifetime counters.
/// Assembled by BatchRestorer::stats() from counters that are mirrored
/// into the process-wide obs::MetricsRegistry (batch.* metrics), the
/// TreeOutcome each job's tree lookup reported, and the tree pool's view
/// count, so the struct is a thin view, not independent bookkeeping.
struct BatchStats {
  std::size_t batches = 0;        ///< restore_all calls
  std::size_t jobs = 0;           ///< restorations attempted
  std::size_t restored = 0;       ///< jobs with a surviving route
  std::size_t unrestorable = 0;   ///< jobs disconnected by the mask
  std::size_t max_pc_length = 0;  ///< worst concatenation length seen
  std::size_t spf_cache_hits = 0;    ///< jobs served by a shared tree
  std::size_t spf_cache_misses = 0;  ///< per-mask trees actually computed
  std::size_t mask_changes = 0;   ///< tree views created after the first
  std::size_t spf_repairs = 0;    ///< misses served by incremental repair
  std::size_t spf_repair_fallbacks = 0;  ///< misses that fell back to scratch

  /// Fraction of per-source tree lookups served without running SPF.
  double spf_hit_rate() const {
    const std::size_t total = spf_cache_hits + spf_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(spf_cache_hits) /
                            static_cast<double>(total);
  }
};

class BatchRestorer {
 public:
  /// `base` must be defined over the unfailed network and outlive the
  /// restorer. The restorer serializes its own calls into `base`; the
  /// caller must not use `base` concurrently with restore_all.
  explicit BatchRestorer(BasePathSet& base, BatchOptions options = {});

  std::size_t threads() const { return pool_.size(); }
  BasePathSet& base() { return base_; }

  /// Restores every job under `mask`; result i corresponds to jobs[i] and
  /// is byte-identical to source_rbpc_restore(base, jobs[i].src,
  /// jobs[i].dst, mask) — same backup path, same decomposition — for every
  /// thread count. Preconditions (checked in job order, matching the
  /// serial loop): endpoints in range, source router alive. A failed or
  /// unreachable *destination* is not an error: the job reports
  /// !restored(), as in the serial engine.
  std::vector<Restoration> restore_all(const graph::FailureMask& mask,
                                       const std::vector<RestoreJob>& jobs);

  /// Snapshot of the lifetime counters; each call re-reads the live
  /// counters, so the SPF fields reflect any trees computed since.
  BatchStats stats() const;

 private:
  BasePathSet& base_;
  ThreadPool pool_;
  std::mutex base_mu_;  // guards base_ during decomposition
  // Unfailed base plus one view for the current mask; the base survives
  // mask changes so each source pays for one full SPF total.
  spf::SnapshotTreePool trees_;
  // Tree lookups per TreeOutcome, summed over every job.
  std::array<std::atomic<std::size_t>, 4> tree_outcomes_{};
  // Lifetime counters, mirrored into the registry; stats() assembles the
  // BatchStats view from these plus the tree counts above.
  obs::InstanceCounter batches_;
  obs::InstanceCounter jobs_;
  obs::InstanceCounter restored_;
  obs::InstanceCounter unrestorable_;
  std::atomic<std::size_t> max_pc_length_{0};
  obs::Gauge max_pc_length_gauge_;
};

/// Convenience for drivers: the indices of `lsps` whose path is broken by
/// `mask` (uses a failed edge or visits a failed router) — the "affected
/// pairs" of a failure event. Trivial and empty paths are never affected.
std::vector<std::size_t> affected_lsps(const graph::Graph& g,
                                       const std::vector<graph::Path>& lsps,
                                       const graph::FailureMask& mask);

}  // namespace rbpc::core
