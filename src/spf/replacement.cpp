#include "spf/replacement.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "spf/metric.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using graph::Weight;

/// The subtree that the failed link cuts off `tree` below `root`, collected
/// breadth-first: trees store no child lists, so the walk descends tree
/// links through the adjacency. Membership is the workspace's region flag
/// `side`, and the nodes are collected in its scratch list `side`.
class CutSide {
 public:
  CutSide(const Graph& g, const ShortestPathTree& tree, NodeId root,
          std::size_t side, SpfWorkspace& ws)
      : side_(side), ws_(ws), region_(ws.scratch_nodes(side)) {
    ws_.node(root).in_region[side_] = true;
    region_.push_back(root);
    for (std::size_t head = 0; head < region_.size(); ++head) {
      const NodeId v = region_[head];
      for (const graph::Arc& a : g.arcs(v)) {
        if (tree.parent_edge(a.to) == a.edge && tree.parent(a.to) == v) {
          ws_.node(a.to).in_region[side_] = true;
          region_.push_back(a.to);
        }
      }
    }
  }

  bool contains(NodeId x) const {
    return ws_.touched(x) && ws_.node(x).in_region[side_];
  }

  const std::vector<NodeId>& nodes() const { return region_; }

 private:
  std::size_t side_;
  SpfWorkspace& ws_;
  std::vector<NodeId>& region_;
};

/// The cheapest link crossing a cut, and whether another one ties it.
struct Crossing {
  Weight cost = graph::kUnreachable;
  bool tied = false;
  NodeId inside = graph::kInvalidNode;
  NodeId outside = graph::kInvalidNode;
  EdgeId edge = graph::kInvalidEdge;
};

/// Scans every link (outside, inside) out of `region`, a subtree of
/// `near`'s tree, except `failed`: cost key_near(outside) + padded_w +
/// key_far(inside). Called with (near, far) = (s's tree, t's tree) on D_s
/// and with (t's tree, s's tree) on D_t.
Crossing scan_cut(const Graph& g, const ShortestPathTree& near,
                  const ShortestPathTree& far, const CutSide& region,
                  EdgeId failed) {
  Crossing best;
  for (const NodeId inside : region.nodes()) {
    const Weight k_in = far.key(inside);
    if (k_in == graph::kUnreachable) continue;
    for (const graph::Arc& a : g.arcs(inside)) {
      if (a.edge == failed || region.contains(a.to)) continue;
      const Weight k_out = near.key(a.to);
      if (k_out == graph::kUnreachable) continue;
      const Weight cost =
          k_out + padded_weight(g, a.edge, near.metric(), near.tiebreak()) +
          k_in;
      if (cost < best.cost) {
        best = Crossing{cost, false, inside, a.to, a.edge};
      } else if (cost == best.cost) {
        best.tied = true;
      }
    }
  }
  return best;
}

}  // namespace

ReplacementKind replacement_route(const Graph& g, const ShortestPathTree& from_s,
                                  const ShortestPathTree& from_t, EdgeId failed,
                                  SpfWorkspace& ws, graph::Path& out) {
  require(from_s.num_nodes() == g.num_nodes() &&
              from_t.num_nodes() == g.num_nodes(),
          "replacement_route: trees do not match the graph");
  require(from_s.metric() == from_t.metric() &&
              from_s.padded() == from_t.padded() &&
              from_s.tiebreak() == from_t.tiebreak(),
          "replacement_route: trees of different flavors");
  require(failed < g.num_edges(), "replacement_route: edge out of range");
  if (!from_s.padded() || g.directed()) return ReplacementKind::kUnproven;

  const NodeId s = from_s.source();
  const NodeId t = from_t.source();
  if (!from_s.reachable(t)) {
    out = graph::Path{};
    return ReplacementKind::kNoRoute;
  }

  // The node on `tree`'s path to `to` whose parent link failed, if any.
  const auto cut_below = [&](const ShortestPathTree& tree, NodeId to) {
    for (NodeId cur = to; cur != tree.source(); cur = tree.parent(cur)) {
      if (tree.parent_edge(cur) == failed) return cur;
    }
    return graph::kInvalidNode;
  };
  const NodeId c_s = cut_below(from_s, t);
  if (c_s == graph::kInvalidNode) {
    out = from_s.path_to(g, t);
    return ReplacementKind::kIntact;
  }
  const NodeId c_t = cut_below(from_t, s);

  // Walks and scans one side's subtree and proves its candidate (see the
  // header). The route always runs canonical(s, x) · (x, y) ·
  // reverse(canonical(t, y)), with x on s's side of the crossing link and y
  // on t's.
  const auto answer = [&](bool s_side) {
    const CutSide region = s_side ? CutSide(g, from_s, c_s, 0, ws)
                                  : CutSide(g, from_t, c_t, 1, ws);
    const Crossing best =
        s_side ? scan_cut(g, from_s, from_t, region, failed)
               : scan_cut(g, from_t, from_s, region, failed);
    if (best.edge == graph::kInvalidEdge) {
      out = graph::Path{};  // e was a bridge between s and t
      return ReplacementKind::kNoRoute;
    }
    if (best.tied) return ReplacementKind::kUnproven;
    const NodeId x = s_side ? best.outside : best.inside;
    const NodeId y = s_side ? best.inside : best.outside;
    // Guards 2 and 3: unique achievers along both halves, which the trees
    // store as the unique bit at x and at y.
    if (!from_s.unique(x) || !from_t.unique(y)) {
      return ReplacementKind::kUnproven;
    }
    // canonical(s, x), read backwards up s's parent chain, the crossing
    // link, then t's half, which t's parent chain yields in y -> t order.
    // The hops are counted first so each array is allocated once. Neither
    // half uses the failed link when the crossing link is the strict
    // minimum.
    std::size_t s_hops = 0;
    for (NodeId v = x; v != s; v = from_s.parent(v)) ++s_hops;
    std::size_t hops = s_hops + 1;
    for (NodeId v = y; v != t; v = from_t.parent(v)) ++hops;
    std::vector<NodeId> nodes(hops + 1);
    std::vector<EdgeId> edges(hops);
    NodeId v = x;
    for (std::size_t i = s_hops; i > 0; --i, v = from_s.parent(v)) {
      RBPC_ASSERT(from_s.parent_edge(v) != failed);
      nodes[i] = v;
      edges[i - 1] = from_s.parent_edge(v);
    }
    nodes[0] = s;
    edges[s_hops] = best.edge;
    v = y;
    for (std::size_t i = s_hops + 1; i < hops; ++i, v = from_t.parent(v)) {
      RBPC_ASSERT(from_t.parent_edge(v) != failed);
      nodes[i] = v;
      edges[i] = from_t.parent_edge(v);
    }
    nodes[hops] = t;
    out = graph::Path::from_parts(g, std::move(nodes), std::move(edges));
    return ReplacementKind::kCut;
  };

  ws.begin(g.num_nodes());
  if (c_t == graph::kInvalidNode) {
    // e is not on t's path to s (canonical(t, s) is not the reverse of
    // canonical(s, t)), so D_t does not hold s: only D_s bounds the route.
    return answer(true);
  }
  // Walk and scan the side whose subtree has fewer arcs; if that side
  // cannot prove its route, the other side's cut may still.
  const bool s_first = from_s.subtree_arcs(c_s) <= from_t.subtree_arcs(c_t);
  const ReplacementKind first = answer(s_first);
  if (first != ReplacementKind::kUnproven) return first;
  return answer(!s_first);
}

}  // namespace rbpc::spf
