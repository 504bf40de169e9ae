// Immutable communication-network graph in CSR (compressed sparse row) form.
//
// The graph is undirected by default (the paper's model: bidirectional links
// with symmetric weights) but can be built directed to reproduce the paper's
// Figure-5 counterexample. Parallel edges are allowed — the paper's
// Theorem-3 discussion explicitly uses a topology with two parallel edges
// between consecutive nodes — and self-loops are rejected.
//
// Mutation happens only through GraphBuilder; a built Graph never changes,
// which lets shortest-path caches and provisioned LSP tables reference it
// safely. Failures are expressed as a separate overlay (FailureMask), never
// by editing the graph.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/error.hpp"

namespace rbpc::graph {

class FailureMask;

/// One physical link. For undirected graphs the (u, v) order is storage
/// order only; the link carries traffic both ways with the same weight.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Weight weight = 1;
};

/// Adjacency record: the neighbor reached and the edge used to reach it.
struct Arc {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

class GraphBuilder;

class Graph {
 public:
  /// An empty graph (0 nodes). Useful as a placeholder before assignment;
  /// non-empty graphs are produced only by GraphBuilder::build().
  Graph() = default;

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }
  bool directed() const { return directed_; }

  /// All arcs leaving `v` (for undirected graphs, every incident link).
  std::span<const Arc> arcs(NodeId v) const {
    require(v < num_nodes_, "Graph::arcs: node out of range");
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  /// Out-degree of `v` (== degree for undirected graphs).
  std::size_t degree(NodeId v) const { return arcs(v).size(); }

  const Edge& edge(EdgeId e) const {
    require(e < edges_.size(), "Graph::edge: edge out of range");
    return edges_[e];
  }
  Weight weight(EdgeId e) const { return edge(e).weight; }

  /// The endpoint of `e` other than `v`. Precondition: v is an endpoint.
  NodeId other_end(EdgeId e, NodeId v) const;

  /// Minimum-weight edge joining u to v (respecting direction for directed
  /// graphs); nullopt when no such edge exists. O(min-degree) scan.
  std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  /// Failure-aware find_edge: the minimum-weight edge joining u to v that
  /// survives `mask` (ties broken toward the lowest edge id, matching the
  /// sorted-adjacency traversal order); kInvalidEdge when none survives.
  /// The per-hop scan shared by Path::from_nodes and PathArena
  /// materialization. O(min-degree) for undirected graphs.
  EdgeId cheapest_arc(NodeId u, NodeId v, const FailureMask& mask) const;

  /// All edges joining u to v (parallel links included).
  std::vector<EdgeId> find_all_edges(NodeId u, NodeId v) const;

  const std::vector<Edge>& edges() const { return edges_; }

  /// Sum of degrees / number of nodes; the paper's "avg. deg." column.
  double average_degree() const;

  /// True when all edges have weight 1 (hop-count == weighted metric).
  bool is_unit_weight() const;

  /// Human-readable one-line summary for logs and examples.
  std::string summary() const;

 private:
  friend class GraphBuilder;

  std::size_t num_nodes_ = 0;
  bool directed_ = false;
  std::vector<Edge> edges_;
  // CSR adjacency.
  std::vector<std::size_t> offsets_;  // size num_nodes_ + 1
  std::vector<Arc> arcs_;
};

/// Accumulates edges, validates them, and produces an immutable Graph.
class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id universe [0, num_nodes).
  explicit GraphBuilder(std::size_t num_nodes, bool directed = false);

  /// Adds a link; returns its EdgeId (edge ids are assigned in insertion
  /// order). Throws PreconditionError on out-of-range endpoints,
  /// self-loops, or non-positive weight.
  EdgeId add_edge(NodeId u, NodeId v, Weight weight = 1);

  /// True if some edge (in either direction for undirected) joins u and v.
  bool has_edge(NodeId u, NodeId v) const;

  /// Reserves storage for `num_edges` edges, so million-edge generators do
  /// not pay repeated growth copies while accumulating.
  void reserve_edges(std::size_t num_edges) { edges_.reserve(num_edges); }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Finalizes the graph. The builder can keep being used afterwards (build
  /// copies the state), which the generators use to grow graphs
  /// incrementally while checkpointing.
  Graph build() const;

 private:
  std::size_t num_nodes_;
  bool directed_;
  std::vector<Edge> edges_;
};

}  // namespace rbpc::graph
