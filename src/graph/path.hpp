// Path representation and path algebra.
//
// A Path records both the node sequence and the edge sequence, because the
// graphs may contain parallel links (the paper's Theorem-3 discussion relies
// on them) and a node sequence alone would be ambiguous there.
//
// Invariant: edges().size() + 1 == nodes().size() for non-empty paths, and
// edge i joins nodes i and i+1. An empty Path (no nodes) represents
// "no route".
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace rbpc::graph {

class Path;

/// Non-owning view of a path: spans over a node sequence and the edge
/// sequence joining it. This is the zero-copy counterpart of Path used on
/// the allocation-free restoration hot path — subviews, cost and liveness
/// checks never touch the heap. A view borrows its storage (a Path or a
/// PathArena) and is invalidated by whatever invalidates that storage.
/// An empty view (no nodes) means "no route", exactly like an empty Path.
class PathView {
 public:
  PathView() = default;
  PathView(std::span<const NodeId> nodes, std::span<const EdgeId> edges)
      : nodes_(nodes), edges_(edges) {}

  bool empty() const { return nodes_.empty(); }
  std::size_t hops() const { return edges_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Precondition for both: !empty().
  NodeId source() const;
  NodeId target() const;

  std::span<const NodeId> nodes() const { return nodes_; }
  std::span<const EdgeId> edges() const { return edges_; }
  NodeId node(std::size_t i) const;
  EdgeId edge(std::size_t i) const;

  /// Sum of edge weights in `g`.
  Weight cost(const Graph& g) const;

  /// True when every edge survives `mask` (and every node is alive).
  bool alive(const Graph& g, const FailureMask& mask) const;

  /// Subview spanning node indices [from, to] inclusive (cf. Path::subpath,
  /// but O(1) and allocation-free). Precondition: from <= to < num_nodes().
  PathView subview(std::size_t from, std::size_t to) const;

  /// Materializes an owning, validated Path (the conversion boundary back
  /// to the legacy representation).
  Path to_path(const Graph& g) const;

  /// Structural equality (node and edge sequences).
  friend bool operator==(const PathView& a, const PathView& b);

 private:
  std::span<const NodeId> nodes_;
  std::span<const EdgeId> edges_;
};

class Path {
 public:
  /// The empty path ("no route").
  Path() = default;

  /// A trivial single-node path (zero hops).
  static Path trivial(NodeId v);

  /// Builds a path from a node sequence, selecting the minimum-weight
  /// surviving edge between consecutive nodes. Throws NoRouteError when
  /// some consecutive pair has no surviving edge.
  static Path from_nodes(const Graph& g, const std::vector<NodeId>& nodes,
                         const FailureMask& mask = FailureMask::none());

  /// Builds a path from explicit node and edge sequences. Validates the
  /// structural invariant against `g`.
  static Path from_parts(const Graph& g, std::vector<NodeId> nodes,
                         std::vector<EdgeId> edges);

  bool empty() const { return nodes_.empty(); }
  /// Number of hops (edges); 0 for trivial and empty paths.
  std::size_t hops() const { return edges_.size(); }
  /// Number of nodes.
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Precondition for both: !empty().
  NodeId source() const;
  NodeId target() const;

  const std::vector<NodeId>& nodes() const { return nodes_; }
  const std::vector<EdgeId>& edges() const { return edges_; }
  /// Zero-copy view of this path; invalidated by any mutation of the Path.
  PathView view() const { return PathView{nodes_, edges_}; }
  NodeId node(std::size_t i) const;
  EdgeId edge(std::size_t i) const;

  /// Sum of edge weights in `g`.
  Weight cost(const Graph& g) const;

  /// True when every edge survives `mask` (and every node is alive).
  bool alive(const Graph& g, const FailureMask& mask) const;

  /// True when the path visits no node twice.
  bool simple() const;

  /// True when the path uses edge `e`.
  bool uses_edge(EdgeId e) const;
  /// True when the path visits node `v`.
  bool visits_node(NodeId v) const;

  /// Appends one hop. Precondition: !empty(); `e` must join target() to `to`.
  void extend(const Graph& g, EdgeId e, NodeId to);

  /// Concatenation: `other` must start at this path's target.
  Path concat(const Path& other) const;

  /// In-place concatenation: appends `other` (which must start at this
  /// path's target; appending to an empty path copies `other`). Equivalent
  /// to *this = concat(other) without the intermediate copy, so folding m
  /// pieces of total length L costs O(L), not O(m * L).
  void append(const Path& other);

  /// Reserves capacity for a path of `hops` edges (hops + 1 nodes).
  void reserve(std::size_t hops);

  /// Subpath spanning node indices [from, to] inclusive.
  /// Precondition: from <= to < num_nodes().
  Path subpath(std::size_t from, std::size_t to) const;
  /// Suffix starting at node index `from`.
  Path suffix_from(std::size_t from) const;

  /// The same path traversed in the opposite direction (undirected graphs).
  Path reversed() const;

  /// "0 -> 3 -> 7" style rendering for logs and examples.
  std::string to_string() const;

  friend bool operator==(const Path& a, const Path& b) = default;

 private:
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
};

}  // namespace rbpc::graph
