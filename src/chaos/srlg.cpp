#include "chaos/srlg.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace rbpc::chaos {

using graph::EdgeId;
using graph::NodeId;

std::vector<SrlgGroup> parallel_span_groups(const graph::Graph& g) {
  // Bucket edges by unordered endpoint pair; every bucket of two or more
  // is one conduit. std::map keys keep group order deterministic.
  std::map<std::pair<NodeId, NodeId>, std::vector<EdgeId>> spans;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    const auto key = std::minmax(ed.u, ed.v);
    spans[{key.first, key.second}].push_back(e);
  }
  std::vector<SrlgGroup> groups;
  for (auto& [pair, edges] : spans) {
    if (edges.size() < 2) continue;
    SrlgGroup group;
    group.kind = SrlgGroup::Kind::ParallelSpan;
    group.edges = std::move(edges);  // ascending: edge ids were visited in order
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<SrlgGroup> regional_groups(const graph::Graph& g,
                                       std::size_t count, std::size_t radius,
                                       Rng& rng, std::size_t max_edges) {
  require(radius >= 1, "regional_groups: radius must be at least 1 hop");
  require(max_edges >= 1, "regional_groups: groups need at least one edge");
  std::vector<SrlgGroup> groups;
  if (g.num_nodes() == 0 || g.num_edges() == 0 || count == 0) return groups;

  const std::vector<std::uint64_t> centers = rng.sample_distinct(
      g.num_nodes(), std::min<std::uint64_t>(count, g.num_nodes()));

  std::vector<std::size_t> depth(g.num_nodes());
  std::vector<NodeId> ball;
  for (const std::uint64_t c : centers) {
    const NodeId center = static_cast<NodeId>(c);
    // Hop-bounded BFS for the node ball around the center.
    constexpr std::size_t kUnvisited = ~std::size_t{0};
    std::fill(depth.begin(), depth.end(), kUnvisited);
    ball.clear();
    ball.push_back(center);
    depth[center] = 0;
    for (std::size_t head = 0; head < ball.size(); ++head) {
      const NodeId v = ball[head];
      if (depth[v] == radius) continue;
      for (const graph::Arc& a : g.arcs(v)) {
        if (depth[a.to] != kUnvisited) continue;
        depth[a.to] = depth[v] + 1;
        ball.push_back(a.to);
      }
    }
    // The edge ball: links with both endpoints inside, closest-first
    // (by the nearer endpoint, then edge id), clipped to max_edges.
    std::vector<std::pair<std::size_t, EdgeId>> ranked;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& ed = g.edge(e);
      if (depth[ed.u] == kUnvisited || depth[ed.v] == kUnvisited) continue;
      ranked.emplace_back(std::min(depth[ed.u], depth[ed.v]), e);
    }
    std::sort(ranked.begin(), ranked.end());
    if (ranked.empty()) continue;
    SrlgGroup group;
    group.kind = SrlgGroup::Kind::Regional;
    group.center = center;
    for (const auto& [d, e] : ranked) {
      if (group.edges.size() >= max_edges) break;
      group.edges.push_back(e);
    }
    std::sort(group.edges.begin(), group.edges.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

SrlgCatalog SrlgCatalog::discover(const graph::Graph& g,
                                  std::size_t regional_count,
                                  std::size_t radius, Rng& rng,
                                  std::size_t max_edges) {
  std::vector<SrlgGroup> groups = parallel_span_groups(g);
  std::vector<SrlgGroup> regional =
      regional_groups(g, regional_count, radius, rng, max_edges);
  groups.insert(groups.end(), std::make_move_iterator(regional.begin()),
                std::make_move_iterator(regional.end()));
  return SrlgCatalog(std::move(groups));
}

graph::FailureMask SrlgCatalog::sample_failure(std::size_t max_groups,
                                               Rng& rng) const {
  graph::FailureMask mask;
  if (groups_.empty() || max_groups == 0) return mask;
  const std::vector<std::uint64_t> picks = rng.sample_distinct(
      groups_.size(), std::min<std::uint64_t>(max_groups, groups_.size()));
  for (const std::uint64_t i : picks) {
    for (const EdgeId e : groups_[static_cast<std::size_t>(i)].edges) {
      mask.fail_edge(e);
    }
  }
  return mask;
}

}  // namespace rbpc::chaos
