// Shortest-path tree: the result of one single-source SPF run.
//
// Storage is four index-aligned arrays, 20 bytes per node: the heap key
// (8), parent (4), parent edge (4) and one node word (4). The true cost is
// not stored: it is the key for unpadded runs and key / kPadScale for
// padded ones. That division is exact because a padded key is
// cost * kPadScale + (sum of the path's salts), and the salt sum stays
// below kPadScale for any path shorter than kPadScale / kMaxSalt hops
// (spf/metric.hpp); the SPF kernels check that bound as they settle
// (incremental repair, whose output equals the kernels', counts no hops).
// The hop count is not stored either: hops(v) walks the parent chain, and
// the hot paths that need it (path extraction, the cut rung's route) count
// hops while they walk anyway.
//
// The node word packs two facts the SPF kernels derive as they build and
// the single-failure cut rung (spf/replacement.hpp) reads in O(1):
//
//  * subtree arcs (low 31 bits): the sum of g.degree(u) over v's subtree,
//    v included — the number of arcs a walk and scan of that subtree
//    reads. Degrees are the full adjacency, failed links included, so the
//    count does not depend on the mask. 0 at unreachable nodes;
//  * unique (top bit): every node on the tree path source -> v, except the
//    source, has exactly one key-achieving in-arc — an alive arc (u, w)
//    with key(u) + step(u, w) == key(w). Then the shortest source -> v
//    path is the only one (induct from v backwards: a shortest path's last
//    arc achieves the key, and its prefix is shortest to its tail). True at
//    the source of a padded or weighted tree; false at unreachable nodes
//    and everywhere in plain hop (BFS) trees, whose kernel does not count
//    achievers (the cut rung refuses them).
#pragma once

#include <cstdint>
#include <span>
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
  /// Number of hops along the tree path, counted by walking the parent
  /// chain (O(hops); see the file comment). Precondition: reachable(v).
  std::uint32_t hops(graph::NodeId v) const;
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

  /// Sum of g.degree(u) over v's subtree, v included (see the file
  /// comment); 0 when v is not reachable.
  std::uint32_t subtree_arcs(graph::NodeId v) const {
    require(v < word_.size(), "ShortestPathTree::subtree_arcs: out of range");
    return word_[v] & kSubtreeArcsMask;
  }
  /// True when every node on the tree path to v, except the source, has
  /// exactly one key-achieving in-arc, so that path is the unique shortest
  /// one (see the file comment).
  bool unique(graph::NodeId v) const {
    require(v < word_.size(), "ShortestPathTree::unique: node out of range");
    return (word_[v] & kUniqueBit) != 0;
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
  /// segment forward against the parent links (longest_tree_prefix), so no
  /// path is materialized. False when the segment starts elsewhere or its
  /// target is unreachable. Precondition: !segment.empty().
  bool is_tree_path(graph::PathView segment) const;

  /// The end index of the longest prefix of `route` from node `pos` that
  /// is a tree path (is_tree_path of route.subview(pos, end)), or `pos`
  /// when not even the first hop is. One forward walk: the prefix grows
  /// while each next node's parent link is the route's link into it.
  /// Precondition: pos < route.num_nodes() and route.node(pos) == source().
  std::size_t longest_tree_prefix(graph::PathView route, std::size_t pos) const;

  std::size_t num_nodes() const { return key_.size(); }

  /// Heap footprint of the SoA arrays (capacity), for the rbpc.mem.* gauges
  /// and the DESIGN.md §11 bytes/node budget: 20 B/node (key 8, parent 4,
  /// parent edge 4, node word 4).
  std::size_t memory_bytes() const;

  // Mutators used by the SPF implementations. `key` is the heap key (the
  // true cost for unpadded runs); settling with key == kUnreachable resets
  // v to the unreached state (used by incremental repair on orphans).
  // settle() clears v's subtree arcs and sets its unique bit as given;
  // sum_subtree_arcs() then fills the arcs of every node in one pass.
  void settle(graph::NodeId v, graph::Weight key, graph::NodeId parent,
              graph::EdgeId parent_edge, bool unique = false) {
    RBPC_ASSERT(v < key_.size());
    key_[v] = key;
    parent_[v] = parent;
    parent_edge_[v] = parent_edge;
    word_[v] = unique ? kUniqueBit : 0;
  }
  // Word updates for incremental repair, which patches a copied tree.
  /// Sets v's unique bit, keeping its subtree arcs.
  void set_unique(graph::NodeId v, bool unique) {
    RBPC_ASSERT(v < word_.size());
    word_[v] = (word_[v] & kSubtreeArcsMask) | (unique ? kUniqueBit : 0);
  }
  /// Adds `delta` to v's subtree arcs modulo 2^31, keeping its unique bit;
  /// a subtraction passes the two's complement (0u - arcs).
  void add_subtree_arcs(graph::NodeId v, std::uint32_t delta) {
    RBPC_ASSERT(v < word_.size());
    word_[v] =
        (word_[v] & kUniqueBit) | ((word_[v] + delta) & kSubtreeArcsMask);
  }
  /// Fills subtree_arcs() for the reachable nodes, given all of them in an
  /// order that lists every parent before its children (a settle order):
  /// one pass in reverse adds each node's degree and then its subtree's
  /// total to its parent. Precondition: the arcs are still zero.
  void sum_subtree_arcs(const graph::Graph& g,
                        std::span<const graph::NodeId> settle_order);

 private:
  static constexpr std::uint32_t kUniqueBit = 1u << 31;
  static constexpr std::uint32_t kSubtreeArcsMask = kUniqueBit - 1;

  graph::NodeId source_ = graph::kInvalidNode;
  Metric metric_ = Metric::Hops;
  bool padded_ = false;
  TiebreakPolicy tiebreak_ = TiebreakPolicy::Arbitrary;
  std::vector<graph::Weight> key_;
  std::vector<graph::NodeId> parent_;
  std::vector<graph::EdgeId> parent_edge_;
  std::vector<std::uint32_t> word_;  ///< subtree arcs | unique << 31
};

}  // namespace rbpc::spf
