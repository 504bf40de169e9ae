// SnapshotTreePool: the one "unfailed base + mask-keyed repair views" tree
// store, and route(), the one restoration ladder over it. The batch
// engine, the controller and the always-on service all read their routes
// from one.
//
// The always-on service reroutes against whatever snapshot each worker
// pinned, and under churn several snapshot versions are in flight at once.
// Rebuilding per-source trees per snapshot would forfeit both sharing
// dimensions TreeCache provides; the pool restores them:
//
//  * across workers — all reroutes against the same failure state share one
//    repair-mode TreeCache (keyed by the exact failed edge/node sets, so a
//    key can never alias two different masks);
//  * across snapshots — every pooled cache repairs from one shared
//    unfailed-network base cache, so a source's full SPF is paid once for
//    the pool's lifetime no matter how many views churn through.
//
// The pool's tiebreak policy is its SpfOptions::tiebreak; every view and
// the base use it, so trees of different policies never mix.
//
// route() climbs the ladder for one s -> t route: the base tree when
// nothing failed; with exactly one failed link and no failed router,
// spf::replacement_route over s's and t's base trees (the cut rung: no
// view, no SPF once both trees are stored, no FailureMask); otherwise, or
// when the cut cannot prove its route unique, the view for the failure
// set, repairing from the base. Every rung yields the same route bit for
// bit (spf/replacement.hpp), so an engine's output never depends on the
// rung it took.
//
// Entries are LRU-evicted past `max_views` (the batch engine and the
// controller keep one view: the current mask). Eviction only drops the
// pool's reference: workers still rerouting against an evicted view keep
// their shared_ptr and finish safely; the cache dies with its last user.
#pragma once

#include <array>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "spf/spf.hpp"
#include "spf/tree_cache.hpp"

namespace rbpc::spf {

struct TreePoolOptions {
  /// Distinct failure states cached at once; 0 means unbounded. Sustained
  /// churn revisits recent masks (flaps!), so a small LRU wins.
  std::size_t max_views = 8;
};

class SnapshotTreePool {
 public:
  /// Throws PreconditionError when options.stop_at is set (pooled caches
  /// must answer every destination, like TreeCache itself).
  SnapshotTreePool(const graph::Graph& g, SpfOptions options,
                   TreePoolOptions pool_options = {});

  const graph::Graph& graph() const { return g_; }
  const SpfOptions& options() const { return options_; }

  /// The shared unfailed-network base cache every view repairs from. It
  /// lives as long as the pool.
  TreeCache& base() { return base_; }

  /// The TreeCache for the failure set (failed links and routers, each
  /// ascending), created (repair-mode over base()) on first use.
  /// Thread-safe; the returned pointer stays valid after eviction.
  std::shared_ptr<TreeCache> cache_for(
      std::span<const graph::EdgeId> failed_edges,
      std::span<const graph::NodeId> failed_nodes);
  std::shared_ptr<TreeCache> cache_for(const graph::FailureMask& mask) {
    return cache_for(mask.failed_edges(), mask.failed_nodes());
  }

  /// The canonical route from `s` to `t` under the failure set (each list
  /// ascending), written to `out` and left empty when t is unreachable.
  /// Returns the rung that answered: kCut, or the rung of the tree read
  /// (kCached, kRepaired or kScratch). Thread-safe. Throws
  /// PreconditionError when `s` is failed or either end is out of range.
  obs::Rung route(graph::NodeId s, graph::NodeId t,
                  std::span<const graph::EdgeId> failed_edges,
                  std::span<const graph::NodeId> failed_nodes,
                  graph::Path& out);

  // --- lifetime counters ----------------------------------------------------
  std::size_t views_created() const;
  std::size_t view_hits() const;
  std::size_t views_evicted() const;
  /// Currently pooled views.
  std::size_t size() const;
  /// route() answers under a failure, by rung (kCached, kCut, kRepaired or
  /// kScratch); a route with nothing failed counts nowhere. A view only
  /// runs scratch SPF when its repair falls back, so kScratch counts those.
  std::uint64_t answers(obs::Rung rung) const {
    return answers_[static_cast<std::size_t>(rung)].value();
  }
  /// Single-failure routes the cut rung could not prove unique, so a view
  /// answered them.
  std::uint64_t cut_fallbacks() const { return cut_fallbacks_.value(); }

 private:
  /// Exact identity of a failure state (no hashing — a collision would
  /// silently hand a worker trees for the wrong mask).
  using Key = std::pair<std::vector<graph::EdgeId>, std::vector<graph::NodeId>>;

  struct Entry {
    std::shared_ptr<TreeCache> cache;
    std::list<const Key*>::iterator lru_pos;
  };

  const graph::Graph& g_;
  SpfOptions options_;
  TreePoolOptions pool_options_;
  TreeCache base_;

  mutable std::mutex mu_;
  std::map<Key, Entry> views_;
  /// Most-recently-used front; nodes point at the map keys they shadow.
  std::list<const Key*> lru_;
  std::size_t views_created_ = 0;
  std::size_t view_hits_ = 0;
  std::size_t views_evicted_ = 0;
  /// Indexed by obs::Rung (ladder.cached / .cut / .repaired / .scratch).
  std::array<obs::InstanceCounter, 4> answers_;
  obs::InstanceCounter cut_fallbacks_;  ///< ladder.cut_fallback
};

}  // namespace rbpc::spf
