// TreeCache: thread-safe per-source cache of shortest-path trees for one
// fixed (graph, failure mask, SPF options) configuration.
//
// This is the sharing layer under every restoration engine: after a failure
// event, every affected LSP rooted at the same source reuses one
// spf::shortest_tree instead of re-running SPF per pair. Unlike
// spf::DistanceOracle (single-threaded, two tree flavors), TreeCache is
// concurrency-first: any number of threads may request trees; concurrent
// requests for the same source block on one computation (std::call_once)
// so each tree is built exactly once.
//
// Two computation modes:
//  * from scratch — spf::shortest_tree under this cache's mask;
//  * incremental repair — when constructed over a *base* TreeCache
//    (typically the unfailed network's trees), each tree is derived from
//    the base tree by spf::repair_tree, which re-relaxes only the region
//    orphaned by the extra failures. Results are bit-identical either way;
//    repair only changes the cost of a miss. spf::SnapshotTreePool is the
//    one place that pairs an unfailed base with per-mask repair views.
//
// The cache is unbounded and never drops an entry: a tree, once published,
// lives as long as the cache. Memory is bounded one level up, by how many
// caches a SnapshotTreePool keeps (a view dies with its last user).
//
// Hit path. A cache is read far more often than it is filled: every
// greedy-decomposition membership probe is a tree() call. Settled entries
// are therefore also published in a node-indexed array, and a hit on a
// settled tree takes no mutex: one acquire load of the slot plus a
// shared_ptr copy. That is safe only because entries live as long as the
// cache (DESIGN.md §7).
//
// Trees are always full one-to-all runs (options.stop_at must be unset) —
// the point of the cache is that one run answers every destination.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "spf/incremental.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"

namespace rbpc::spf {

class TreeCache {
 public:
  /// Copies `mask`; `g` must outlive the cache. Throws PreconditionError
  /// when options.stop_at is set (cached trees must cover every
  /// destination).
  ///
  /// With a `base`, the cache is in repair mode: trees are derived from
  /// `base`'s trees (same graph and SpfOptions, a failure mask that is a
  /// subset of this cache's) by incremental SPT repair. `base` must outlive
  /// this cache; it is shared, so its own thread-safety guarantees apply.
  TreeCache(const graph::Graph& g, graph::FailureMask mask,
            SpfOptions options = {}, TreeCache* base = nullptr);

  const graph::Graph& graph() const { return g_; }
  const graph::FailureMask& mask() const { return mask_; }
  const SpfOptions& options() const { return options_; }

  /// The shortest-path tree rooted at `source`, computed on first use.
  /// Thread-safe. Throws PreconditionError (like spf::shortest_tree) when
  /// `source` is failed or out of range — such a failed attempt is not
  /// cached and a later call retries.
  std::shared_ptr<const ShortestPathTree> tree(graph::NodeId source) {
    return tree(source, nullptr);
  }
  /// Same, reporting the ladder rung the call ran at into *rung (when
  /// non-null): kCached when it ran no SPF, kRepaired for incremental
  /// repair, kScratch for scratch SPF (no base, or repair fell back).
  std::shared_ptr<const ShortestPathTree> tree(graph::NodeId source,
                                               obs::Rung* rung);

  /// Cumulative counters across the cache's lifetime: a miss is a tree()
  /// call that ran SPF itself, a hit is one that found (or waited for) an
  /// existing tree. The accessors are thin views over counters that also
  /// feed the process-wide obs::MetricsRegistry (cache.hit / cache.miss /
  /// cache.repair / cache.repair_fallback / cache.scratch), and misses() is
  /// *derived* as scratch + repairs + fallbacks — the three ways a tree()
  /// call can run SPF are counted disjointly, so a repair can never
  /// double-count against an independently maintained miss total.
  std::size_t hits() const { return hits_.value(); }
  std::size_t misses() const {
    return scratch_.value() + repairs_.value() + repair_fallbacks_.value();
  }
  /// Misses served by incremental repair / by its from-scratch fallback
  /// (both zero for caches without a base).
  std::size_t repairs() const { return repairs_.value(); }
  std::size_t repair_fallbacks() const { return repair_fallbacks_.value(); }

  /// Number of sources requested so far (settled or in flight).
  std::size_t size() const;

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const ShortestPathTree> tree;
  };

  std::shared_ptr<const ShortestPathTree> compute(graph::NodeId source,
                                                  obs::Rung* rung);

  const graph::Graph& g_;
  graph::FailureMask mask_;
  SpfOptions options_;
  TreeCache* base_ = nullptr;  // not owned; nullptr = from-scratch mode

  mutable std::mutex mu_;  // guards entries_ (map structure only)
  /// Node-based map: an Entry never moves and is never erased, so the
  /// pointers in settled_ stay valid for the cache's lifetime.
  std::unordered_map<graph::NodeId, Entry> entries_;
  /// settled_[s] is entries_'s entry for s once its tree is settled, else
  /// null. Written once, by the thread that computed the tree.
  std::unique_ptr<std::atomic<const Entry*>[]> settled_;
  // Per-instance counters mirrored into the process-wide registry (see the
  // accessor docs). scratch/repairs/fallbacks partition the misses.
  obs::InstanceCounter hits_;
  obs::InstanceCounter scratch_;
  obs::InstanceCounter repairs_;
  obs::InstanceCounter repair_fallbacks_;
  // Registry-only aggregate so scrapes see a ready-made cache.miss total
  // (per-instance misses() derives it instead).
  obs::Counter miss_total_;
};

}  // namespace rbpc::spf
