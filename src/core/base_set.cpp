#include "core/base_set.hpp"

#include "util/error.hpp"

namespace rbpc::core {

// --- BasePathSet ------------------------------------------------------------

std::size_t BasePathSet::longest_prefix(graph::PathView route,
                                         std::size_t pos) {
  require(pos + 1 < route.num_nodes(),
          "BasePathSet::longest_prefix: no hop left at pos");
  if (!contains(route.subview(pos, pos + 1))) return pos;
  std::size_t lo = pos + 1;  // known member
  std::size_t hi = route.num_nodes() - 1;  // candidate range upper end
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (contains(route.subview(pos, mid))) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// --- AllPairsShortestBaseSet -------------------------------------------------

AllPairsShortestBaseSet::AllPairsShortestBaseSet(spf::DistanceOracle& oracle)
    : BasePathSet(oracle.graph(), oracle.metric()), oracle_(oracle) {
  require(oracle.mask().empty(),
          "AllPairsShortestBaseSet: base sets are defined on the unfailed "
          "network; the oracle must carry no failures");
}

bool AllPairsShortestBaseSet::contains(graph::PathView segment) {
  return oracle_.is_shortest(segment);
}

graph::PathRef AllPairsShortestBaseSet::base_path_ref(
    graph::NodeId u, graph::NodeId v, graph::PathArena& arena) {
  if (u == v) return arena.trivial(u);
  return oracle_.some_shortest_path_ref(u, v, arena);
}

bool AllPairsShortestBaseSet::connected(graph::NodeId u, graph::NodeId v) {
  return u == v || oracle_.reachable(u, v);
}

// --- CanonicalBaseSet --------------------------------------------------------

CanonicalBaseSet::CanonicalBaseSet(spf::DistanceOracle& oracle)
    : BasePathSet(oracle.graph(), oracle.metric()), oracle_(oracle) {
  require(oracle.mask().empty(),
          "CanonicalBaseSet: base sets are defined on the unfailed network; "
          "the oracle must carry no failures");
}

bool CanonicalBaseSet::contains(graph::PathView segment) {
  return oracle_.is_canonical(segment);
}

std::size_t CanonicalBaseSet::longest_prefix(graph::PathView route,
                                             std::size_t pos) {
  return oracle_.padded_tree(route.node(pos)).longest_tree_prefix(route, pos);
}

graph::PathRef CanonicalBaseSet::base_path_ref(graph::NodeId u, graph::NodeId v,
                                               graph::PathArena& arena) {
  if (u == v) return arena.trivial(u);
  return oracle_.canonical_path_ref(u, v, arena);
}

bool CanonicalBaseSet::connected(graph::NodeId u, graph::NodeId v) {
  return u == v || oracle_.canonical_reachable(u, v);
}

// --- SharedCanonicalBaseSet --------------------------------------------------

SharedCanonicalBaseSet::SharedCanonicalBaseSet(spf::TreeCache& trees)
    : BasePathSet(trees.graph(), trees.options().metric), trees_(trees) {
  require(trees.mask().empty(),
          "SharedCanonicalBaseSet: base sets are defined on the unfailed "
          "network; the tree cache must carry no failures");
  require(trees.options().padded,
          "SharedCanonicalBaseSet: canonical membership needs padded trees");
}

bool SharedCanonicalBaseSet::contains(graph::PathView segment) {
  if (segment.empty() || segment.hops() == 0) return true;
  return trees_.tree(segment.source())->is_tree_path(segment);
}

std::size_t SharedCanonicalBaseSet::longest_prefix(graph::PathView route,
                                                   std::size_t pos) {
  return trees_.tree(route.node(pos))->longest_tree_prefix(route, pos);
}

graph::PathRef SharedCanonicalBaseSet::base_path_ref(graph::NodeId u,
                                                     graph::NodeId v,
                                                     graph::PathArena& arena) {
  if (u == v) return arena.trivial(u);
  const auto t = trees_.tree(u);
  if (!t->reachable(v)) return graph::PathRef{};
  return t->path_to_ref(trees_.graph(), v, arena);
}

bool SharedCanonicalBaseSet::connected(graph::NodeId u, graph::NodeId v) {
  return u == v || trees_.tree(u)->reachable(v);
}

// --- ExpandedBaseSet ---------------------------------------------------------

ExpandedBaseSet::ExpandedBaseSet(spf::DistanceOracle& oracle)
    : BasePathSet(oracle.graph(), oracle.metric()), oracle_(oracle) {
  require(oracle.mask().empty(),
          "ExpandedBaseSet: base sets are defined on the unfailed network; "
          "the oracle must carry no failures");
}

bool ExpandedBaseSet::contains(graph::PathView segment) {
  if (segment.empty() || segment.hops() == 0) return true;
  if (oracle_.is_canonical(segment)) return true;
  // Corollary 4: canonical path with one edge appended at either end. A
  // single edge is the 0-hop canonical path plus that edge. Subviews keep
  // the probes allocation-free.
  if (oracle_.is_canonical(
          segment.subview(0, segment.num_nodes() - 2))) {
    return true;  // canonical + trailing edge
  }
  if (oracle_.is_canonical(segment.subview(1, segment.num_nodes() - 1))) {
    return true;  // leading edge + canonical
  }
  return false;
}

graph::PathRef ExpandedBaseSet::base_path_ref(graph::NodeId u, graph::NodeId v,
                                              graph::PathArena& arena) {
  if (u == v) return arena.trivial(u);
  return oracle_.canonical_path_ref(u, v, arena);
}

bool ExpandedBaseSet::connected(graph::NodeId u, graph::NodeId v) {
  return u == v || oracle_.canonical_reachable(u, v);
}

// --- FaultTolerantBaseSet ----------------------------------------------------

FaultTolerantBaseSet::FaultTolerantBaseSet(spf::DistanceOracle& oracle)
    : BasePathSet(oracle.graph(), oracle.metric()), oracle_(oracle) {
  require(oracle.mask().empty(),
          "FaultTolerantBaseSet: base sets are defined on the unfailed "
          "network; the oracle must carry no failures");
}

spf::DistanceOracle& FaultTolerantBaseSet::failure_oracle(graph::EdgeId e) {
  auto it = failure_oracles_.find(e);
  if (it == failure_oracles_.end()) {
    // Point queries dominate; a few trees per punctured graph suffice.
    auto oracle = std::make_unique<spf::DistanceOracle>(
        oracle_.graph(), graph::FailureMask::of_edges({e}), oracle_.metric(),
        /*max_cached_trees=*/4, /*max_cached_bytes=*/0, oracle_.tiebreak());
    // Stamped before the eviction scan, so the new entry is the most
    // recently used and never the victim.
    it = failure_oracles_
             .emplace(e, Slot{std::move(oracle), ++use_clock_})
             .first;
    while (failure_oracles_.size() > kMaxFailureOracles) {
      auto victim = failure_oracles_.begin();
      for (auto cur = failure_oracles_.begin(); cur != failure_oracles_.end();
           ++cur) {
        if (cur->second.last_used < victim->second.last_used) victim = cur;
      }
      failure_oracles_.erase(victim);
    }
    return *it->second.oracle;
  }
  it->second.last_used = ++use_clock_;
  return *it->second.oracle;
}

bool FaultTolerantBaseSet::contains(graph::PathView segment) {
  if (segment.empty() || segment.hops() == 0) return true;
  // Shortest in G: the all-pairs membership test.
  if (oracle_.is_shortest(segment)) return true;
  const graph::NodeId u = segment.source();
  const graph::NodeId v = segment.target();
  graph::Weight cost = 0;
  for (const graph::EdgeId e : segment.edges()) {
    cost += spf::metric_weight(oracle_.graph(), e, oracle_.metric());
  }
  // Witness candidates: canonical-path edges not on the segment (any edge
  // whose removal makes the segment shortest must kill every strictly
  // shorter u-v path, hence lie on the canonical shortest path).
  const graph::Path canon = oracle_.canonical_path(u, v);
  for (const graph::EdgeId e : canon.edges()) {
    bool on_segment = false;
    for (const graph::EdgeId se : segment.edges()) {
      if (se == e) {
        on_segment = true;
        break;
      }
    }
    if (on_segment) continue;
    if (failure_oracle(e).dist(u, v) == cost) return true;
  }
  return false;
}

graph::PathRef FaultTolerantBaseSet::base_path_ref(graph::NodeId u,
                                                   graph::NodeId v,
                                                   graph::PathArena& arena) {
  if (u == v) return arena.trivial(u);
  return oracle_.canonical_path_ref(u, v, arena);
}

bool FaultTolerantBaseSet::connected(graph::NodeId u, graph::NodeId v) {
  return u == v || oracle_.reachable(u, v);
}

}  // namespace rbpc::core
