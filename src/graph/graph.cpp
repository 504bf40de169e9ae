#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "graph/failure.hpp"
#include "util/error.hpp"

namespace rbpc::graph {

NodeId Graph::other_end(EdgeId e, NodeId v) const {
  const Edge& ed = edge(e);
  require(ed.u == v || ed.v == v, "Graph::other_end: node is not an endpoint");
  return ed.u == v ? ed.v : ed.u;
}

std::optional<EdgeId> Graph::find_edge(NodeId u, NodeId v) const {
  require(u < num_nodes_ && v < num_nodes_, "Graph::find_edge: node out of range");
  // Scan the smaller adjacency list (for directed graphs, u's list only).
  const NodeId scan_from =
      (!directed_ && degree(v) < degree(u)) ? v : u;
  const NodeId want = (scan_from == u) ? v : u;
  std::optional<EdgeId> best;
  Weight best_w = std::numeric_limits<Weight>::max();
  for (const Arc& a : arcs(scan_from)) {
    if (a.to == want && weight(a.edge) < best_w) {
      best = a.edge;
      best_w = weight(a.edge);
    }
  }
  return best;
}

EdgeId Graph::cheapest_arc(NodeId u, NodeId v, const FailureMask& mask) const {
  require(u < num_nodes_ && v < num_nodes_,
          "Graph::cheapest_arc: node out of range");
  if (!mask.node_alive(u) || !mask.node_alive(v)) return kInvalidEdge;
  const NodeId scan_from = (!directed_ && degree(v) < degree(u)) ? v : u;
  const NodeId want = (scan_from == u) ? v : u;
  EdgeId best = kInvalidEdge;
  Weight best_w = std::numeric_limits<Weight>::max();
  // Strict improvement over the (target, edge)-sorted adjacency keeps the
  // lowest edge id among equal-weight parallel survivors.
  for (const Arc& a : arcs(scan_from)) {
    if (a.to == want && !mask.edge_failed(a.edge) && weight(a.edge) < best_w) {
      best = a.edge;
      best_w = weight(a.edge);
    }
  }
  return best;
}

std::vector<EdgeId> Graph::find_all_edges(NodeId u, NodeId v) const {
  require(u < num_nodes_ && v < num_nodes_,
          "Graph::find_all_edges: node out of range");
  std::vector<EdgeId> out;
  for (const Arc& a : arcs(u)) {
    if (a.to == v) out.push_back(a.edge);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Graph::average_degree() const {
  if (num_nodes_ == 0) return 0.0;
  return static_cast<double>(arcs_.size()) / static_cast<double>(num_nodes_);
}

bool Graph::is_unit_weight() const {
  return std::all_of(edges_.begin(), edges_.end(),
                     [](const Edge& e) { return e.weight == 1; });
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << (directed_ ? "directed" : "undirected") << " graph: " << num_nodes_
     << " nodes, " << edges_.size() << " links, avg degree "
     << average_degree();
  return os.str();
}

GraphBuilder::GraphBuilder(std::size_t num_nodes, bool directed)
    : num_nodes_(num_nodes), directed_(directed) {
  require(num_nodes <= kInvalidNode, "GraphBuilder: too many nodes");
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v, Weight weight) {
  require(u < num_nodes_ && v < num_nodes_,
          "GraphBuilder::add_edge: endpoint out of range");
  require(u != v, "GraphBuilder::add_edge: self-loops are not allowed");
  require(weight > 0, "GraphBuilder::add_edge: weight must be positive");
  require(edges_.size() < kInvalidEdge, "GraphBuilder::add_edge: too many edges");
  edges_.push_back(Edge{u, v, weight});
  return static_cast<EdgeId>(edges_.size() - 1);
}

bool GraphBuilder::has_edge(NodeId u, NodeId v) const {
  return std::any_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
    if (e.u == u && e.v == v) return true;
    return !directed_ && e.u == v && e.v == u;
  });
}

Graph GraphBuilder::build() const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.directed_ = directed_;
  g.edges_ = edges_;

  // Counting sort into CSR.
  std::vector<std::size_t> counts(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++counts[e.u + 1];
    if (!directed_) ++counts[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) counts[i] += counts[i - 1];
  g.offsets_ = counts;

  g.arcs_.resize(directed_ ? edges_.size() : 2 * edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Edge& e = edges_[id];
    g.arcs_[cursor[e.u]++] = Arc{e.v, id};
    if (!directed_) g.arcs_[cursor[e.v]++] = Arc{e.u, id};
  }
  // Deterministic neighbor order (by target id, then edge id) so that
  // traversal-dependent results are stable across platforms.
  for (NodeId v = 0; v < num_nodes_; ++v) {
    auto begin = g.arcs_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto end = g.arcs_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end, [](const Arc& a, const Arc& b) {
      return a.to != b.to ? a.to < b.to : a.edge < b.edge;
    });
  }
  return g;
}

}  // namespace rbpc::graph
