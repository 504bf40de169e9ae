// TreeCache: thread-safe per-source cache of shortest-path trees for one
// fixed (graph, failure mask, SPF options) configuration.
//
// This is the sharing layer of the batch restoration engine (core/batch.hpp):
// after a failure event, every affected LSP rooted at the same source reuses
// one spf::shortest_tree instead of re-running SPF per pair. Unlike
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
//    repair only changes the cost of a miss.
//
// Memory is bounded by TreeCacheOptions::max_entries (0 = unbounded):
// past the cap, the least-recently-used settled tree is evicted. Because
// tree() hands out shared_ptrs, eviction can never invalidate a tree a
// caller is still reading — the entry just leaves the cache and is
// recomputed on the next request.
//
// Hit path. An unbounded cache (the service's unfailed base, the pool's
// views) is read far more often than it is filled: every greedy-
// decomposition membership probe is a tree() call. Its settled entries are
// therefore also published in a node-indexed array, and a hit on a settled
// tree takes no mutex: it reads the array slot, copies the shared_ptr, and
// counts itself on per-thread stripes. Bounded caches keep the locked LRU
// path (their entries can be evicted, which the array cannot express).
// clear() nulls the published slots and then waits until every reader that
// may have loaded one has left before it frees the entries, so a
// concurrent hit never dereferences a freed entry (DESIGN.md §7).
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
#include "spf/incremental.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"

namespace rbpc::spf {

struct TreeCacheOptions {
  /// Maximum number of cached trees; 0 means unbounded. On 40k-node
  /// topologies each tree costs ~1.5 MB, so storm drivers that sweep many
  /// sources should set a cap sized to their source locality.
  std::size_t max_entries = 0;
};

/// How a tree() call was served — the introspection plane's stage hook:
/// the service maps this onto its graceful-degradation ladder rung when it
/// records a RerouteRecord (obs/request_trace.hpp).
enum class TreeOutcome : std::uint8_t {
  kHit = 0,       ///< tree was already settled (or a concurrent compute won)
  kRepaired = 1,  ///< computed by incremental SPT repair from the base tree
  kScratch = 2,   ///< computed by from-scratch SPF (no base, or empty delta)
  kFallback = 3,  ///< repair bailed to from-scratch SPF (orphan region too big)
};

class TreeCache {
 public:
  /// From-scratch cache. Copies `mask`; `g` must outlive the cache. Throws
  /// PreconditionError when options.stop_at is set (cached trees must cover
  /// every destination).
  TreeCache(const graph::Graph& g, graph::FailureMask mask,
            SpfOptions options = {}, TreeCacheOptions cache_options = {});

  /// Repair-mode cache: trees are derived from `base`'s trees (same graph
  /// and SpfOptions, a failure mask that is a subset of this cache's) by
  /// incremental SPT repair. `base` must outlive this cache; it is shared,
  /// so its own thread-safety guarantees apply. Passing base == nullptr
  /// degrades to the from-scratch constructor.
  TreeCache(const graph::Graph& g, graph::FailureMask mask,
            SpfOptions options, TreeCacheOptions cache_options,
            TreeCache* base, IncrementalOptions incremental = {});

  const graph::Graph& graph() const { return g_; }
  const graph::FailureMask& mask() const { return mask_; }
  const SpfOptions& options() const { return options_; }

  /// The shortest-path tree rooted at `source`, computed on first use.
  /// Thread-safe; the returned pointer keeps the tree alive even if the
  /// entry is evicted or cleared concurrently. Throws PreconditionError
  /// (like spf::shortest_tree) when `source` is failed or out of range —
  /// such a failed attempt is not cached and a later call retries.
  std::shared_ptr<const ShortestPathTree> tree(graph::NodeId source) {
    return tree(source, nullptr);
  }
  /// Same, reporting how the call was served into *outcome (when non-null):
  /// kHit when this call ran no SPF, otherwise which kind of SPF it ran.
  std::shared_ptr<const ShortestPathTree> tree(graph::NodeId source,
                                               TreeOutcome* outcome);

  /// Cumulative counters across the cache's lifetime: a miss is a tree()
  /// call that ran SPF itself, a hit is one that found (or waited for) an
  /// existing tree. The accessors are thin views over counters that also
  /// feed the process-wide obs::MetricsRegistry (cache.hit / cache.miss /
  /// cache.evict / cache.repair / cache.repair_fallback / cache.scratch),
  /// and misses() is *derived* as scratch + repairs + fallbacks — the three
  /// ways a tree() call can run SPF are counted disjointly, so a repair can
  /// never double-count against an independently maintained miss total.
  std::size_t hits() const { return hits_.value(); }
  std::size_t misses() const {
    return scratch_.value() + repairs_.value() + repair_fallbacks_.value();
  }
  /// Entries dropped to respect max_entries.
  std::size_t evictions() const { return evictions_.value(); }
  /// Misses served by incremental repair / by its from-scratch fallback
  /// (both zero for caches without a base).
  std::size_t repairs() const { return repairs_.value(); }
  std::size_t repair_fallbacks() const { return repair_fallbacks_.value(); }

  /// Number of currently cached trees (bounded by max_entries when set).
  std::size_t size() const;

  /// Drops every cached tree (counters are kept) and starts a new
  /// generation: each source is computed at most once per generation.
  /// Safe against concurrent tree() calls — outstanding shared_ptrs keep
  /// their trees alive, and clear() waits for in-flight lock-free hits
  /// before freeing the entries they may be reading. A computation that
  /// started before clear() returns its tree to its callers but does not
  /// repopulate the new generation.
  void clear();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const ShortestPathTree> tree;
    std::atomic<bool> ready{false};
    std::atomic<std::uint64_t> last_used{0};
  };

  /// Readers inside the lock-free hit path, counted per stripe (a thread
  /// always uses the same one) and per parity, so clear() can wait for the
  /// readers that predate its slot reset while new readers count on the
  /// other side.
  struct alignas(64) ReaderCell {
    std::atomic<std::uint64_t> active[2] = {0, 0};
  };

  std::shared_ptr<const ShortestPathTree> compute(graph::NodeId source,
                                                  TreeOutcome* outcome);
  /// The settled tree for `source` via the lock-free array, or null.
  std::shared_ptr<const ShortestPathTree> settled_hit(graph::NodeId source);
  /// Publishes a freshly settled entry into the array, unless a clear()
  /// dropped it from the map meanwhile.
  void publish(graph::NodeId source, const std::shared_ptr<Entry>& entry);
  void evict_over_cap();

  const graph::Graph& g_;
  graph::FailureMask mask_;
  SpfOptions options_;
  TreeCacheOptions cache_options_;
  TreeCache* base_ = nullptr;  // not owned; nullptr = from-scratch mode
  IncrementalOptions incremental_;

  mutable std::mutex mu_;  // guards entries_ (map structure only)
  std::unordered_map<graph::NodeId, std::shared_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> use_clock_{0};  // LRU clock (bounded caches)
  /// Unbounded caches only (null otherwise): settled_[s] is the entry
  /// entries_ holds for s once its tree is settled, else null. Slots are
  /// written under mu_; entries stay owned by entries_.
  std::unique_ptr<std::atomic<Entry*>[]> settled_;
  ReaderCell readers_[obs::detail::kStripes];
  std::atomic<unsigned> parity_{0};
  // Per-instance counters mirrored into the process-wide registry (see the
  // accessor docs). scratch/repairs/fallbacks partition the misses.
  obs::InstanceCounter hits_;
  obs::InstanceCounter scratch_;
  obs::InstanceCounter repairs_;
  obs::InstanceCounter repair_fallbacks_;
  obs::InstanceCounter evictions_;
  // Registry-only aggregate so scrapes see a ready-made cache.miss total
  // (per-instance misses() derives it instead).
  obs::Counter miss_total_;
};

}  // namespace rbpc::spf
