#include "spf/tree_pool.hpp"

#include "spf/replacement.hpp"
#include "spf/workspace.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

obs::InstanceCounter ladder_counter(const char* name) {
  return obs::InstanceCounter(obs::MetricsRegistry::global().counter(name));
}

}  // namespace

SnapshotTreePool::SnapshotTreePool(const graph::Graph& g, SpfOptions options,
                                   TreePoolOptions pool_options)
    : g_(g),
      options_(options),
      pool_options_(pool_options),
      base_(g, graph::FailureMask{}, options),
      answers_{ladder_counter("ladder.cached"), ladder_counter("ladder.cut"),
               ladder_counter("ladder.repaired"),
               ladder_counter("ladder.scratch")},
      cut_fallbacks_(ladder_counter("ladder.cut_fallback")) {
  // TreeCache's own constructor rejects stop_at; base_ already checked it.
}

obs::Rung SnapshotTreePool::route(graph::NodeId s, graph::NodeId t,
                                  std::span<const graph::EdgeId> failed_edges,
                                  std::span<const graph::NodeId> failed_nodes,
                                  graph::Path& out) {
  const bool failures = !failed_edges.empty() || !failed_nodes.empty();
  if (failed_edges.size() == 1 && failed_nodes.empty()) {
    const auto from_s = base_.tree(s);
    const auto from_t = base_.tree(t);
    if (replacement_route(g_, *from_s, *from_t, failed_edges[0],
                          thread_workspace(), out) !=
        ReplacementKind::kUnproven) {
      answers_[static_cast<std::size_t>(obs::Rung::kCut)].inc();
      return obs::Rung::kCut;
    }
    cut_fallbacks_.inc();
  }
  // Holding the view keeps it alive even if the pool evicts it meanwhile.
  const std::shared_ptr<TreeCache> view =
      failures ? cache_for(failed_edges, failed_nodes) : nullptr;
  obs::Rung rung = obs::Rung::kCached;
  const std::shared_ptr<const ShortestPathTree> tree =
      (failures ? *view : base_).tree(s, &rung);
  out = tree->reachable(t) ? tree->path_to(g_, t) : graph::Path{};
  if (failures) answers_[static_cast<std::size_t>(rung)].inc();
  return rung;
}

std::shared_ptr<TreeCache> SnapshotTreePool::cache_for(
    std::span<const graph::EdgeId> failed_edges,
    std::span<const graph::NodeId> failed_nodes) {
  Key key{{failed_edges.begin(), failed_edges.end()},
          {failed_nodes.begin(), failed_nodes.end()}};

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

  graph::FailureMask mask;
  for (const graph::EdgeId e : failed_edges) mask.fail_edge(e);
  for (const graph::NodeId v : failed_nodes) mask.fail_node(v);
  auto cache =
      std::make_shared<TreeCache>(g_, std::move(mask), options_, &base_);
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
