#include "spf/oracle.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

obs::Gauge& oracle_trees_gauge() {
  static obs::Gauge g =
      obs::MetricsRegistry::global().gauge("rbpc.mem.oracle_trees");
  return g;
}

}  // namespace

DistanceOracle::DistanceOracle(const graph::Graph& g, graph::FailureMask mask,
                               Metric metric, std::size_t max_cached_trees,
                               std::size_t max_cached_bytes,
                               TiebreakPolicy tiebreak)
    : g_(g),
      mask_(std::move(mask)),
      metric_(metric),
      max_cached_(max_cached_trees),
      max_cached_bytes_(max_cached_bytes),
      tiebreak_(tiebreak) {}

DistanceOracle::~DistanceOracle() {
  oracle_trees_gauge().add(-static_cast<std::int64_t>(cached_bytes_));
}

void DistanceOracle::account(std::int64_t delta) {
  cached_bytes_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(cached_bytes_) + delta);
  oracle_trees_gauge().add(delta);
}

void DistanceOracle::evict_over_bounds(Cache& cache) {
  const auto lru = [](Cache& c) {
    return std::min_element(c.slots.begin(), c.slots.end(),
                            [](const auto& a, const auto& b) {
                              return a.second.last_used < b.second.last_used;
                            });
  };
  // Per-flavor count bound (the legacy max_cached_trees semantics).
  while (max_cached_ != 0 && cache.slots.size() > max_cached_) {
    auto victim = lru(cache);
    account(-static_cast<std::int64_t>(victim->second.tree->memory_bytes()));
    cache.slots.erase(victim);
  }
  // Byte bound spans both flavors; evict the globally least recently used
  // tree, always keeping at least the newest one.
  while (max_cached_bytes_ != 0 && cached_bytes_ > max_cached_bytes_ &&
         cached_trees() > 1) {
    Cache* from = nullptr;
    auto victim = plain_.slots.end();
    const auto consider = [&](Cache& c) {
      if (c.slots.empty()) return;
      auto cv = lru(c);
      if (from == nullptr || cv->second.last_used < victim->second.last_used) {
        from = &c;
        victim = cv;
      }
    };
    consider(plain_);
    consider(padded_);
    RBPC_ASSERT(from != nullptr);
    account(-static_cast<std::int64_t>(victim->second.tree->memory_bytes()));
    from->slots.erase(victim);
  }
}

std::size_t DistanceOracle::cached_trees() const {
  return plain_.slots.size() + padded_.slots.size();
}

const ShortestPathTree& DistanceOracle::insert(
    Cache& cache, graph::NodeId u, std::unique_ptr<ShortestPathTree> tree) {
  account(static_cast<std::int64_t>(tree->memory_bytes()));
  auto it =
      cache.slots.insert_or_assign(u, Cache::Slot{std::move(tree), ++use_clock_})
          .first;
  evict_over_bounds(cache);
  return *it->second.tree;
}

const ShortestPathTree& DistanceOracle::get(Cache& cache, graph::NodeId u,
                                            bool padded) {
  auto it = cache.slots.find(u);
  if (it == cache.slots.end()) {
    auto tree = std::make_unique<ShortestPathTree>(
        shortest_tree(g_, u, mask_,
                      SpfOptions{.metric = metric_,
                                 .padded = padded,
                                 .tiebreak = tiebreak_}));
    ++spf_runs_;
    return insert(cache, u, std::move(tree));
  }
  it->second.last_used = ++use_clock_;
  return *it->second.tree;
}

const ShortestPathTree& DistanceOracle::tree(graph::NodeId u) {
  return get(plain_, u, /*padded=*/false);
}

const ShortestPathTree& DistanceOracle::padded_tree(graph::NodeId u) {
  return get(padded_, u, /*padded=*/true);
}

const ShortestPathTree* DistanceOracle::peek(graph::NodeId u) const {
  // Any flavor answers a true-cost query: trees record true dist regardless
  // of padding, and padding never changes which costs are optimal.
  for (const Cache* c : {&plain_, &padded_}) {
    if (auto it = c->slots.find(u); it != c->slots.end()) {
      return it->second.tree.get();
    }
  }
  return nullptr;
}

void DistanceOracle::set_bounded_point_queries(bool enabled) {
  require(!enabled || !g_.directed(),
          "DistanceOracle: bounded point queries need an undirected graph");
  bounded_point_ = enabled;
  if (enabled && point_fwd_ == nullptr) {
    point_fwd_ = std::make_unique<SpfWorkspace>();
    point_bwd_ = std::make_unique<SpfWorkspace>();
  }
}

graph::Weight DistanceOracle::dist(graph::NodeId u, graph::NodeId v) {
  // Serve from whichever tree is already cached before computing one.
  if (const ShortestPathTree* t = peek(u)) return t->dist(v);
  // Undirected distances are symmetric: a cached tree at v also answers.
  if (!g_.directed()) {
    if (const ShortestPathTree* t = peek(v)) return t->dist(u);
  }
  if (bounded_point_) {
    ++spf_runs_;
    return bounded_distance(g_, u, v, mask_, SpfOptions{.metric = metric_},
                            *point_fwd_, *point_bwd_);
  }
  return tree(u).dist(v);
}

bool DistanceOracle::reachable(graph::NodeId u, graph::NodeId v) {
  return dist(u, v) != graph::kUnreachable;
}

bool DistanceOracle::canonical_reachable(graph::NodeId u, graph::NodeId v) {
  if (u == v) return true;
  if (const ShortestPathTree* t = peek(u)) return t->reachable(v);
  if (!g_.directed()) {
    if (const ShortestPathTree* t = peek(v)) return t->reachable(u);
  }
  if (bounded_point_) {
    // Reachability is flavor-independent, so the bidirectional probe
    // answers it without materializing a padded tree.
    ++spf_runs_;
    return bounded_distance(g_, u, v, mask_, SpfOptions{.metric = metric_},
                            *point_fwd_, *point_bwd_) != graph::kUnreachable;
  }
  return padded_tree(u).reachable(v);
}

graph::Path DistanceOracle::canonical_path(graph::NodeId u, graph::NodeId v) {
  const ShortestPathTree& t = padded_tree(u);
  if (!t.reachable(v)) return graph::Path{};
  return t.path_to(g_, v);
}

graph::PathRef DistanceOracle::some_shortest_path_ref(graph::NodeId u,
                                                      graph::NodeId v,
                                                      graph::PathArena& arena) {
  const ShortestPathTree& t = tree(u);
  if (!t.reachable(v)) return graph::PathRef{};
  return t.path_to_ref(g_, v, arena);
}

graph::PathRef DistanceOracle::canonical_path_ref(graph::NodeId u,
                                                  graph::NodeId v,
                                                  graph::PathArena& arena) {
  const ShortestPathTree& t = padded_tree(u);
  if (!t.reachable(v)) return graph::PathRef{};
  return t.path_to_ref(g_, v, arena);
}

bool DistanceOracle::is_shortest(graph::PathView segment) {
  if (segment.empty() || segment.hops() == 0) return true;
  graph::Weight cost = 0;
  for (graph::EdgeId e : segment.edges()) {
    cost += metric_weight(g_, e, metric_);
  }
  return cost == dist(segment.source(), segment.target());
}

bool DistanceOracle::is_canonical(graph::PathView segment) {
  if (segment.empty() || segment.hops() == 0) return true;
  return padded_tree(segment.source()).is_tree_path(segment);
}

}  // namespace rbpc::spf
