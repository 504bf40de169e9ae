// Parallel batch restoration engine (the paper's Section-5 workload).
//
// After a failure event, source RBPC restores *every* affected LSP — an
// embarrassingly parallel job the serial loop over source_rbpc_restore
// leaves on the table. BatchRestorer runs the restorations concurrently on
// a fixed-size thread pool. Each job's route comes from
// spf::SnapshotTreePool::route, the restoration ladder the always-on
// service and the controller climb too:
//
//  * the cut rung — with exactly one failed link (and no failed router),
//    the route is read off the source's and the destination's *unfailed*
//    trees by spf::replacement_route: no tree under the mask at all. The
//    unfailed trees live in the pool's base store and survive every mask
//    change, so a failure storm pays one full SPF per endpoint total;
//
//  * per-source SPF sharing with incremental repair — otherwise (k >= 2,
//    a failed router, or a cut the guard cannot prove), all LSPs rooted at
//    the same source share one tree under the mask, derived from the
//    source's unfailed tree by spf::repair_tree, which re-relaxes only the
//    region the failures orphan. The pool keeps one such view (the current
//    mask); it persists across restore_all calls as long as the mask is
//    unchanged (repeated queries under one failure);
//
//  * deterministic reduction — result i is written to slot i regardless of
//    which worker computed it, so the output is byte-identical to the
//    serial loop for every thread count (including 1). Determinism rests on
//    the SPF layer's canonical tie-breaking (see DESIGN.md, "Determinism
//    under parallelism"): each Restoration is a pure function of
//    (graph, mask, base set, pair), never of scheduling order or of the
//    rung that answered.
//
// The decomposition stage still funnels through the caller's BasePathSet
// (whose membership oracles cache trees and are not thread-safe) under a
// mutex; SPF under the mask dominates, so restorations scale while
// decomposition serializes on warm unfailed-network caches. The set stays
// caller-supplied because callers pass different oracle-backed sets, whose
// decompositions differ from one another: bench/batch_restore a Canonical
// set, examples/multi_failure_storm an AllPairs one.
#pragma once

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
/// into the process-wide obs::MetricsRegistry (batch.* and ladder.*
/// metrics) and the tree pool's view count, so the struct is a thin view,
/// not independent bookkeeping. The SPF fields count jobs answered by a
/// tree under the mask; cut answers and all-up batches (which read the
/// unfailed trees) count in none of them.
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
  std::size_t cut_routes = 0;     ///< single-failure jobs the cut answered
  /// Single-failure jobs the cut could not prove unique (a view answered).
  std::size_t cut_fallbacks = 0;

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
  const spf::SnapshotTreePool& tree_pool() const { return trees_; }

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
  // mask changes so each endpoint pays for one full SPF total. It also
  // counts the ladder's answers.
  spf::SnapshotTreePool trees_;
  // Lifetime counters, mirrored into the registry; stats() assembles the
  // BatchStats view from these plus the pool's counts.
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
