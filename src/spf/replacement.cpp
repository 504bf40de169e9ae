#include "spf/replacement.hpp"

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

  // c: the node on s's tree path to t whose parent link failed, if any.
  NodeId c = graph::kInvalidNode;
  for (NodeId cur = t; cur != s; cur = from_s.parent(cur)) {
    if (from_s.parent_edge(cur) == failed) {
      c = cur;
      break;
    }
  }
  if (c == graph::kInvalidNode) {
    out = from_s.path_to(g, t);
    return ReplacementKind::kIntact;
  }

  // D: c's subtree, found by descending tree links through the adjacency
  // (trees store no child lists). Membership is the region flag.
  ws.begin(g.num_nodes());
  std::vector<NodeId>& region = ws.scratch_nodes();
  ws.node(c).in_region = true;
  region.push_back(c);
  for (std::size_t head = 0; head < region.size(); ++head) {
    const NodeId v = region[head];
    for (const graph::Arc& a : g.arcs(v)) {
      if (from_s.parent_edge(a.to) == a.edge && from_s.parent(a.to) == v) {
        ws.node(a.to).in_region = true;
        region.push_back(a.to);
      }
    }
  }
  const auto in_region = [&](NodeId x) {
    return ws.touched(x) && ws.node(x).in_region;
  };

  // The cut scan: the cheapest crossing link (x outside, y inside) and
  // whether any other crossing link ties it.
  Weight best = graph::kUnreachable;
  bool tied = false;
  NodeId bx = graph::kInvalidNode;
  NodeId by = graph::kInvalidNode;
  EdgeId be = graph::kInvalidEdge;
  for (const NodeId y : region) {
    const Weight ky = from_t.key(y);
    if (ky == graph::kUnreachable) continue;
    for (const graph::Arc& a : g.arcs(y)) {
      if (a.edge == failed || in_region(a.to)) continue;
      const Weight kx = from_s.key(a.to);
      if (kx == graph::kUnreachable) continue;
      const Weight cost =
          kx + padded_weight(g, a.edge, from_s.metric(), from_s.tiebreak()) +
          ky;
      if (cost < best) {
        best = cost;
        tied = false;
        bx = a.to;
        by = y;
        be = a.edge;
      } else if (cost == best) {
        tied = true;
      }
    }
  }
  if (be == graph::kInvalidEdge) {
    out = graph::Path{};  // e was a bridge between s and t
    return ReplacementKind::kNoRoute;
  }
  if (tied) return ReplacementKind::kUnproven;

  // Guards 2 and 3 (see the header): unique achievers along both halves.
  // t's half never uses the failed link when (x, y) is the minimum.
  for (NodeId v = bx; v != s; v = from_s.parent(v)) {
    if (!sole_achiever(g, from_s, v)) return ReplacementKind::kUnproven;
  }
  for (NodeId v = by; v != t; v = from_t.parent(v)) {
    RBPC_ASSERT(from_t.parent_edge(v) != failed);
    if (!sole_achiever(g, from_t, v)) return ReplacementKind::kUnproven;
  }

  // canonical(s, x), the crossing link, then t's half, which reading up
  // t's parent chain already yields in y -> t order.
  graph::Path route = from_s.path_to(g, bx);
  route.reserve(from_s.hops(bx) + 1 + from_t.hops(by));
  route.extend(g, be, by);
  for (NodeId v = by; v != t; v = from_t.parent(v)) {
    route.extend(g, from_t.parent_edge(v), from_t.parent(v));
  }
  out = std::move(route);
  return ReplacementKind::kCut;
}

}  // namespace rbpc::spf
