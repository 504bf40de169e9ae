// Shortest-path tree: the result of one single-source SPF run.
//
// Storage is four index-aligned arrays, 20 bytes per node: the heap key
// (8), hops (4), parent (4) and parent edge (4). The true cost is not
// stored: it is the key for unpadded runs and key / kPadScale for padded
// ones. That division is exact because a padded key is
// cost * kPadScale + (sum of the path's salts), and the salt sum stays
// below kPadScale for any path shorter than kPadScale / kMaxSalt hops
// (spf/metric.hpp); settle() checks that bound.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/path_arena.hpp"
#include "graph/types.hpp"
#include "spf/metric.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

class ShortestPathTree {
 public:
  /// An empty placeholder tree (0 nodes); bring it to life with reset().
  /// Lets engines hold reusable trees by value before the first build.
  ShortestPathTree() = default;

  ShortestPathTree(graph::NodeId source, std::size_t num_nodes, Metric metric,
                   bool padded,
                   TiebreakPolicy tiebreak = TiebreakPolicy::Arbitrary);

  /// Re-initializes this tree for a new run, reusing the existing array
  /// capacity: once the tree has been sized for `num_nodes` no further
  /// heap allocation happens (vector::assign fills in place). The in-place
  /// counterpart of constructing a fresh tree, used by shortest_tree_into
  /// and the bulk builder.
  void reset(graph::NodeId source, std::size_t num_nodes, Metric metric,
             bool padded, TiebreakPolicy tiebreak = TiebreakPolicy::Arbitrary);

  graph::NodeId source() const { return source_; }
  Metric metric() const { return metric_; }
  /// True when the run used deterministic padding (canonical tie-breaking).
  bool padded() const { return padded_; }
  /// The tiebreak policy the run padded with (Arbitrary for unpadded runs).
  TiebreakPolicy tiebreak() const { return tiebreak_; }

  // The per-node accessors are inline (the cut scan and repair call them
  // per node visited); each keeps its range check.

  bool reachable(graph::NodeId v) const {
    require(v < key_.size(), "ShortestPathTree::reachable: node out of range");
    return key_[v] != graph::kUnreachable;
  }
  /// True cost (hops or weight per `metric`) of the tree path to v;
  /// kUnreachable when v is not reachable. Derived from key(v) (see the
  /// file comment), not stored.
  graph::Weight dist(graph::NodeId v) const {
    require(v < key_.size(), "ShortestPathTree::dist: node out of range");
    const graph::Weight k = key_[v];
    if (!padded_ || k == graph::kUnreachable) return k;
    return k / kPadScale;
  }
  /// Number of hops along the tree path. Precondition: reachable(v).
  std::uint32_t hops(graph::NodeId v) const {
    require(reachable(v), "ShortestPathTree::hops: node not reachable");
    return hops_[v];
  }
  /// Tree parent of v; kInvalidNode at the source and unreachable nodes.
  graph::NodeId parent(graph::NodeId v) const {
    require(v < parent_.size(), "ShortestPathTree::parent: node out of range");
    return parent_[v];
  }
  graph::EdgeId parent_edge(graph::NodeId v) const {
    require(v < parent_edge_.size(),
            "ShortestPathTree::parent_edge: node out of range");
    return parent_edge_[v];
  }

  /// The heap key under which v settled: the padded cost for padded runs,
  /// the true cost otherwise; kUnreachable when v is not reachable. Stored
  /// so that incremental repair (spf/incremental.hpp) can reproduce the
  /// exact settle order and tie-breaking of a from-scratch run at the
  /// boundary of the repaired region, and so that the single-failure cut
  /// scan (spf/replacement.hpp) can price crossing links.
  graph::Weight key(graph::NodeId v) const {
    require(v < key_.size(), "ShortestPathTree::key: node out of range");
    return key_[v];
  }

  /// Reconstructs the tree path source -> v. Precondition: reachable(v).
  graph::Path path_to(const graph::Graph& g, graph::NodeId v) const;

  /// Allocation-free counterpart of path_to: extracts the tree path into
  /// `arena` and returns its handle. The chain is written target -> source
  /// and committed with commit_reversed(), so extraction is one backwards
  /// walk plus one in-place reverse. Precondition: reachable(v).
  graph::PathRef path_to_ref(const graph::Graph& g, graph::NodeId v,
                             graph::PathArena& arena) const;

  /// True when `segment` is exactly the tree path from source() to its
  /// target — canonical-set membership when the tree is padded. Walks the
  /// parent chain in place, so no path is materialized. False when the
  /// segment starts elsewhere or its target is unreachable. Precondition:
  /// !segment.empty().
  bool is_tree_path(graph::PathView segment) const;

  std::size_t num_nodes() const { return key_.size(); }

  /// Heap footprint of the SoA arrays (capacity), for the rbpc.mem.* gauges
  /// and the DESIGN.md §11 bytes/node budget: 20 B/node.
  std::size_t memory_bytes() const;

  // Mutators used by the SPF implementations. `key` is the heap key (the
  // true cost for unpadded runs); settling with key == kUnreachable resets
  // v to the unreached state (used by incremental repair on orphans).
  void settle(graph::NodeId v, graph::Weight key, std::uint32_t hops,
              graph::NodeId parent, graph::EdgeId parent_edge);

 private:
  graph::NodeId source_ = graph::kInvalidNode;
  Metric metric_ = Metric::Hops;
  bool padded_ = false;
  TiebreakPolicy tiebreak_ = TiebreakPolicy::Arbitrary;
  std::vector<graph::Weight> key_;
  std::vector<std::uint32_t> hops_;
  std::vector<graph::NodeId> parent_;
  std::vector<graph::EdgeId> parent_edge_;
};

}  // namespace rbpc::spf
