#include "spf/tree.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::spf {

ShortestPathTree::ShortestPathTree(graph::NodeId source, std::size_t num_nodes,
                                   Metric metric, bool padded,
                                   TiebreakPolicy tiebreak)
    : source_(source),
      metric_(metric),
      padded_(padded),
      tiebreak_(tiebreak),
      key_(num_nodes, graph::kUnreachable),
      parent_(num_nodes, graph::kInvalidNode),
      parent_edge_(num_nodes, graph::kInvalidEdge),
      word_(num_nodes, 0) {
  require(source < num_nodes, "ShortestPathTree: source out of range");
}

void ShortestPathTree::reset(graph::NodeId source, std::size_t num_nodes,
                             Metric metric, bool padded,
                             TiebreakPolicy tiebreak) {
  require(source < num_nodes, "ShortestPathTree::reset: source out of range");
  source_ = source;
  metric_ = metric;
  padded_ = padded;
  tiebreak_ = tiebreak;
  key_.assign(num_nodes, graph::kUnreachable);
  parent_.assign(num_nodes, graph::kInvalidNode);
  parent_edge_.assign(num_nodes, graph::kInvalidEdge);
  word_.assign(num_nodes, 0);
}

std::uint32_t ShortestPathTree::hops(graph::NodeId v) const {
  require(reachable(v), "ShortestPathTree::hops: node not reachable");
  std::uint32_t hops = 0;
  for (graph::NodeId cur = v; cur != source_; cur = parent_[cur]) ++hops;
  return hops;
}

graph::Path ShortestPathTree::path_to(const graph::Graph& g,
                                      graph::NodeId v) const {
  require(reachable(v), "ShortestPathTree::path_to: node not reachable");
  const std::uint32_t length = hops(v);
  std::vector<graph::NodeId> nodes;
  std::vector<graph::EdgeId> edges;
  nodes.reserve(length + 1);
  edges.reserve(length);
  for (graph::NodeId cur = v; cur != source_; cur = parent_[cur]) {
    RBPC_ASSERT(cur != graph::kInvalidNode);
    nodes.push_back(cur);
    edges.push_back(parent_edge_[cur]);
  }
  nodes.push_back(source_);
  std::reverse(nodes.begin(), nodes.end());
  std::reverse(edges.begin(), edges.end());
  return graph::Path::from_parts(g, std::move(nodes), std::move(edges));
}

graph::PathRef ShortestPathTree::path_to_ref(const graph::Graph& g,
                                             graph::NodeId v,
                                             graph::PathArena& arena) const {
  (void)g;
  require(reachable(v), "ShortestPathTree::path_to_ref: node not reachable");
  arena.start();
  for (graph::NodeId cur = v; cur != source_; cur = parent_[cur]) {
    RBPC_ASSERT(cur != graph::kInvalidNode);
    arena.add_node(cur);
    arena.add_edge(parent_edge_[cur]);
  }
  arena.add_node(source_);
  return arena.commit_reversed();
}

bool ShortestPathTree::is_tree_path(graph::PathView segment) const {
  require(!segment.empty(), "ShortestPathTree::is_tree_path: empty segment");
  return segment.source() == source_ &&
         longest_tree_prefix(segment, 0) == segment.hops();
}

std::size_t ShortestPathTree::longest_tree_prefix(graph::PathView route,
                                                  std::size_t pos) const {
  require(pos < route.num_nodes() && route.node(pos) == source_,
          "ShortestPathTree::longest_tree_prefix: route does not start at "
          "the source");
  // route[pos..j] is the tree path to route[j] (by induction from the
  // trivial path at pos), so route[pos..j+1] is one iff route[j+1]'s
  // parent link is the route's link from route[j].
  const std::size_t last = route.num_nodes() - 1;
  std::size_t end = pos;
  while (end < last && parent_edge(route.node(end + 1)) == route.edge(end)) {
    ++end;
  }
  return end;
}

std::size_t ShortestPathTree::memory_bytes() const {
  return key_.capacity() * sizeof(graph::Weight) +
         parent_.capacity() * sizeof(graph::NodeId) +
         parent_edge_.capacity() * sizeof(graph::EdgeId) +
         word_.capacity() * sizeof(std::uint32_t);
}

void ShortestPathTree::sum_subtree_arcs(
    const graph::Graph& g, std::span<const graph::NodeId> settle_order) {
  // A subtree's arcs never exceed the graph's, so 31 bits hold every sum.
  require(2 * g.num_edges() <= kSubtreeArcsMask,
          "ShortestPathTree: too many links for the subtree-arc count");
  for (std::size_t i = settle_order.size(); i-- > 0;) {
    const graph::NodeId v = settle_order[i];
    word_[v] += static_cast<std::uint32_t>(g.degree(v));
    const graph::NodeId p = parent_[v];
    if (p != graph::kInvalidNode) word_[p] += word_[v] & kSubtreeArcsMask;
  }
}

}  // namespace rbpc::spf
