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
      hops_(num_nodes, 0),
      parent_(num_nodes, graph::kInvalidNode),
      parent_edge_(num_nodes, graph::kInvalidEdge) {
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
  hops_.assign(num_nodes, 0);
  parent_.assign(num_nodes, graph::kInvalidNode);
  parent_edge_.assign(num_nodes, graph::kInvalidEdge);
}

graph::Path ShortestPathTree::path_to(const graph::Graph& g,
                                      graph::NodeId v) const {
  require(reachable(v), "ShortestPathTree::path_to: node not reachable");
  std::vector<graph::NodeId> nodes;
  std::vector<graph::EdgeId> edges;
  nodes.reserve(hops_[v] + 1);
  edges.reserve(hops_[v]);
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
  graph::NodeId cur = segment.target();
  if (!reachable(cur) || hops_[cur] != segment.hops()) return false;
  for (std::size_t i = segment.hops(); i-- > 0;) {
    if (segment.node(i + 1) != cur || segment.edge(i) != parent_edge_[cur]) {
      return false;
    }
    cur = parent_[cur];
  }
  return cur == segment.source();
}

std::size_t ShortestPathTree::memory_bytes() const {
  return key_.capacity() * sizeof(graph::Weight) +
         hops_.capacity() * sizeof(std::uint32_t) +
         parent_.capacity() * sizeof(graph::NodeId) +
         parent_edge_.capacity() * sizeof(graph::EdgeId);
}

void ShortestPathTree::settle(graph::NodeId v, graph::Weight key,
                              std::uint32_t hops, graph::NodeId parent,
                              graph::EdgeId parent_edge) {
  RBPC_ASSERT(v < key_.size());
  // dist() divides the padded key by kPadScale; the quotient is the true
  // cost only while the path's salt sum stays below kPadScale.
  RBPC_ASSERT(!padded_ || hops < kPadScale / kMaxSalt);
  key_[v] = key;
  hops_[v] = hops;
  parent_[v] = parent;
  parent_edge_[v] = parent_edge;
}

}  // namespace rbpc::spf
