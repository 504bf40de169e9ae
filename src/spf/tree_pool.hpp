// SnapshotTreePool: the one "unfailed base + mask-keyed repair views" tree
// store. The batch engine, the controller and the always-on service all
// read their trees from one.
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
// Entries are LRU-evicted past `max_views` (the batch engine and the
// controller keep one view: the current mask). Eviction only drops the
// pool's reference: workers still rerouting against an evicted view keep
// their shared_ptr and finish safely; the cache dies with its last user.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
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

  /// The TreeCache for `mask`, created (repair-mode over base()) on first
  /// use. Thread-safe; the returned pointer stays valid after eviction.
  std::shared_ptr<TreeCache> cache_for(const graph::FailureMask& mask);

  // --- lifetime counters ----------------------------------------------------
  std::size_t views_created() const;
  std::size_t view_hits() const;
  std::size_t views_evicted() const;
  /// Currently pooled views.
  std::size_t size() const;

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
};

}  // namespace rbpc::spf
