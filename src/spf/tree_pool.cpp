#include "spf/tree_pool.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

SnapshotTreePool::SnapshotTreePool(const graph::Graph& g, SpfOptions options,
                                   TreePoolOptions pool_options)
    : g_(g),
      options_(options),
      pool_options_(pool_options),
      base_(g, graph::FailureMask{}, options) {
  // TreeCache's own constructor rejects stop_at; base_ already checked it.
}

std::shared_ptr<TreeCache> SnapshotTreePool::cache_for(
    const graph::FailureMask& mask) {
  Key key{mask.failed_edges(), mask.failed_nodes()};

  static obs::Counter hits =
      obs::MetricsRegistry::global().counter("pool.view_hit");
  static obs::Counter creates =
      obs::MetricsRegistry::global().counter("pool.view_create");
  static obs::Counter evicts =
      obs::MetricsRegistry::global().counter("pool.view_evict");

  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(key);
  if (it != views_.end()) {
    ++view_hits_;
    hits.inc();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.cache;
  }

  auto cache = std::make_shared<TreeCache>(g_, mask, options_, &base_);
  auto [pos, inserted] = views_.emplace(std::move(key), Entry{cache, {}});
  RBPC_ASSERT(inserted);
  lru_.push_front(&pos->first);
  pos->second.lru_pos = lru_.begin();
  ++views_created_;
  creates.inc();

  while (pool_options_.max_views != 0 && views_.size() > pool_options_.max_views) {
    const Key* oldest = lru_.back();
    lru_.pop_back();
    // Erase by iterator: erase-by-key would compare against the stored key
    // object while destroying the node that owns it.
    views_.erase(views_.find(*oldest));
    ++views_evicted_;
    evicts.inc();
  }
  return cache;
}

std::size_t SnapshotTreePool::views_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_created_;
}

std::size_t SnapshotTreePool::view_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_hits_;
}

std::size_t SnapshotTreePool::views_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_evicted_;
}

std::size_t SnapshotTreePool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

}  // namespace rbpc::spf
