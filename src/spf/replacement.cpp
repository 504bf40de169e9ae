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

/// True when `v` has exactly one in-arc attaining its key in `tree` (the
/// tree's own parent arc always does), so the shortest path to v is unique
/// given that the shortest path to its parent is.
bool sole_achiever(const Graph& g, const ShortestPathTree& tree, NodeId v) {
  const Weight key = tree.key(v);
  int achievers = 0;
  for (const graph::Arc& a : g.arcs(v)) {
    const Weight ku = tree.key(a.to);
    if (ku == graph::kUnreachable) continue;
    if (ku + padded_weight(g, a.edge, tree.metric(), tree.tiebreak()) == key &&
        ++achievers > 1) {
      return false;
    }
  }
  return achievers == 1;
}

/// The subtree that the failed link cuts off `tree` below `root`, walked
/// breadth-first one node per step(): trees store no child lists, so a step
/// descends tree links through the adjacency. Membership is the
/// workspace's region flag `side`, and the nodes are collected in its
/// scratch list `side`.
class CutSide {
 public:
  CutSide(const ShortestPathTree& tree, NodeId root, std::size_t side,
          SpfWorkspace& ws)
      : tree_(tree), side_(side), ws_(ws), region_(ws.scratch_nodes(side)) {
    ws_.node(root).in_region[side_] = true;
    region_.push_back(root);
  }

  bool done() const { return head_ == region_.size(); }

  /// Visits the next node of the walk. Precondition: !done().
  void step(const Graph& g) {
    const NodeId v = region_[head_++];
    for (const graph::Arc& a : g.arcs(v)) {
      if (tree_.parent_edge(a.to) == a.edge && tree_.parent(a.to) == v) {
        ws_.node(a.to).in_region[side_] = true;
        region_.push_back(a.to);
      }
    }
  }

  void finish(const Graph& g) {
    while (!done()) step(g);
  }

  bool contains(NodeId x) const {
    return ws_.touched(x) && ws_.node(x).in_region[side_];
  }

  const std::vector<NodeId>& nodes() const { return region_; }

 private:
  const ShortestPathTree& tree_;
  std::size_t side_;
  SpfWorkspace& ws_;
  std::vector<NodeId>& region_;
  std::size_t head_ = 0;
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

  // Scans one side's subtree and proves its candidate (see the header).
  // The route always runs canonical(s, x) · (x, y) · reverse(canonical(t,
  // y)), with x on s's side of the crossing link and y on t's.
  const auto answer = [&](bool s_side, const CutSide& region) {
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
    // Guards 2 and 3: unique achievers along both halves. Neither half
    // uses the failed link when the crossing link is the strict minimum.
    for (NodeId v = x; v != s; v = from_s.parent(v)) {
      RBPC_ASSERT(from_s.parent_edge(v) != failed);
      if (!sole_achiever(g, from_s, v)) return ReplacementKind::kUnproven;
    }
    for (NodeId v = y; v != t; v = from_t.parent(v)) {
      RBPC_ASSERT(from_t.parent_edge(v) != failed);
      if (!sole_achiever(g, from_t, v)) return ReplacementKind::kUnproven;
    }
    // canonical(s, x), the crossing link, then t's half, which reading up
    // t's parent chain already yields in y -> t order.
    graph::Path route = from_s.path_to(g, x);
    route.reserve(from_s.hops(x) + 1 + from_t.hops(y));
    route.extend(g, best.edge, y);
    for (NodeId v = y; v != t; v = from_t.parent(v)) {
      route.extend(g, from_t.parent_edge(v), from_t.parent(v));
    }
    out = std::move(route);
    return ReplacementKind::kCut;
  };

  ws.begin(g.num_nodes());
  CutSide d_s(from_s, c_s, 0, ws);
  if (c_t == graph::kInvalidNode) {
    // e is not on t's path to s (canonical(t, s) is not the reverse of
    // canonical(s, t)), so D_t does not hold s: only D_s bounds the route.
    d_s.finish(g);
    return answer(true, d_s);
  }
  // Walk D_s and D_t in lockstep and scan whichever ends first, so the
  // work is about twice the smaller subtree. If that side cannot prove its
  // route, the other side's cut may still.
  CutSide d_t(from_t, c_t, 1, ws);
  while (!d_s.done() && !d_t.done()) {
    d_s.step(g);
    d_t.step(g);
  }
  const bool s_first = d_s.done();
  const ReplacementKind first = answer(s_first, s_first ? d_s : d_t);
  if (first != ReplacementKind::kUnproven) return first;
  CutSide& second = s_first ? d_t : d_s;
  second.finish(g);
  return answer(!s_first, second);
}

}  // namespace rbpc::spf
