// Failure overlays: the set of currently failed links and routers.
//
// Failures never mutate the Graph; algorithms take (graph, mask) pairs.
// An empty (default-constructed) mask means "everything is up" and is valid
// for any graph, so APIs can take `const FailureMask&` with a cheap default.
#pragma once

#include <initializer_list>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace rbpc::graph {

class FailureMask {
 public:
  /// Everything up.
  FailureMask() = default;

  /// Marks link `e` failed.
  void fail_edge(EdgeId e);
  /// Marks router `v` failed (equivalently: all incident links fail).
  void fail_node(NodeId v);

  /// Restores a previously failed link / router (no-op when already up).
  void restore_edge(EdgeId e);
  void restore_node(NodeId v);

  // The checks are inline: the SPF kernels, the cut scan and repair ask
  // them once per arc.
  bool edge_failed(EdgeId e) const {
    return e < edge_failed_.size() && edge_failed_[e];
  }
  bool node_failed(NodeId v) const {
    return v < node_failed_.size() && node_failed_[v];
  }

  /// A link is usable iff neither it nor either endpoint has failed.
  bool edge_alive(const Graph& g, EdgeId e) const {
    if (empty()) return true;
    if (edge_failed(e)) return false;
    const Edge& ed = g.edge(e);
    return node_alive(ed.u) && node_alive(ed.v);
  }
  bool node_alive(NodeId v) const { return !node_failed(v); }

  /// True when nothing is failed.
  bool empty() const { return failed_edge_count_ == 0 && failed_node_count_ == 0; }

  std::size_t failed_edge_count() const { return failed_edge_count_; }
  std::size_t failed_node_count() const { return failed_node_count_; }

  /// Total failure count k as used by Theorems 1 and 2: each failed node
  /// contributes its (alive-)degree worth of edge failures in the worst
  /// case; this helper returns the exact number of edges removed from `g`.
  std::size_t removed_edge_count(const Graph& g) const;

  std::vector<EdgeId> failed_edges() const;
  std::vector<NodeId> failed_nodes() const;

  static FailureMask of_edges(std::initializer_list<EdgeId> edges);
  static FailureMask of_edges(const std::vector<EdgeId>& edges);
  static FailureMask of_nodes(std::initializer_list<NodeId> nodes);
  static FailureMask of_nodes(const std::vector<NodeId>& nodes);

  /// Shared all-up mask, handy as a default argument.
  static const FailureMask& none();

 private:
  // Index-addressed bitmaps, grown on demand; indices beyond the current
  // size are implicitly "up". This keeps a default mask allocation-free.
  std::vector<bool> edge_failed_;
  std::vector<bool> node_failed_;
  std::size_t failed_edge_count_ = 0;
  std::size_t failed_node_count_ = 0;
};

}  // namespace rbpc::graph
