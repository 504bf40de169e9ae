#include "spf/spf.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "spf/workspace.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using graph::Weight;

/// Flushes one SPF run's locally accumulated kernel counts into the
/// process-wide registry — a handful of striped adds per run instead of
/// one per heap operation, so the kernels stay allocation- and
/// contention-free.
void flush_kernel_counts(std::uint64_t pushes, std::uint64_t pops,
                         std::uint64_t relax_attempts) {
  static obs::Counter runs =
      obs::MetricsRegistry::global().counter("spf.runs");
  static obs::Counter heap_pushes =
      obs::MetricsRegistry::global().counter("spf.heap.pushes");
  static obs::Counter heap_pops =
      obs::MetricsRegistry::global().counter("spf.heap.pops");
  static obs::Counter relaxations =
      obs::MetricsRegistry::global().counter("spf.relaxations");
  runs.add(1);
  heap_pushes.add(pushes);
  heap_pops.add(pops);
  relaxations.add(relax_attempts);
}

/// The hop-metric kernel, padded or not, with no heap. Every step is one
/// hop, so a node at hop distance h has key h unpadded and a key in
/// [h * kPadScale, (h + 1) * kPadScale) padded (its path's salt sum stays
/// below kPadScale): a heap would pop the nodes one hop layer at a time.
/// The kernel builds the tree that way. It scans layer h's nodes, in the
/// order they joined it, and relaxes their alive arcs into layer h + 1;
/// arcs back into layers <= h can neither improve nor tie a key there.
///
/// Unpadded, the first discoverer of a node is its parent: the BFS queue
/// order, and the unique bits stay false (no achiever counting).
///
/// Padded, a node's key and tie flag depend only on the set of achievers,
/// and its parent must be the achiever a heap run settles first: the one
/// with the least (key(u), u), first arc in u's adjacency on equal (key,
/// u) (DESIGN.md §7). Layer order is not key order, so an equal `alt`
/// compares its achiever against the current parent instead of being
/// ignored. Until its layer settles, a node's unique bit holds "no tie
/// yet": set by a strict improvement, cleared by an equal `alt`. Settling
/// the layer then ands in the parent's (already final) bit, as the heap
/// kernel does at settle. The layer list doubles as the settle order for
/// the subtree-arc pass.
///
/// stop_at: an unpadded run stops when it dequeues the target, as BFS
/// does; a padded run stops once the target's layer has settled. Only the
/// target's entries are specified.
void hop_tree_into(const Graph& g, NodeId source, const FailureMask& mask,
                   const SpfOptions& options, SpfWorkspace& ws,
                   ShortestPathTree& tree) {
  const bool padded = options.padded;
  const TiebreakPolicy policy =
      padded ? options.tiebreak : TiebreakPolicy::Arbitrary;
  tree.reset(source, g.num_nodes(), Metric::Hops, padded, policy);
  tree.settle(source, 0, graph::kInvalidNode, graph::kInvalidEdge, padded);
  ws.begin(g.num_nodes());
  std::vector<NodeId>& order = ws.scratch_nodes();
  order.push_back(source);
  const bool has_target = options.stop_at < g.num_nodes();
  std::uint64_t relax_attempts = 0;
  bool stopped = false;
  for (std::size_t begin = 0, layer = 0; begin < order.size() && !stopped;
       ++layer) {
    if (padded && has_target && tree.reachable(options.stop_at)) break;
    const std::size_t end = order.size();
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = order[i];
      if (!padded && u == options.stop_at) {
        stopped = true;
        break;
      }
      const Weight ku = tree.key(u);
      for (const graph::Arc& a : g.arcs(u)) {
        if (!mask.edge_alive(g, a.edge)) continue;
        ++relax_attempts;
        const Weight kt = tree.key(a.to);
        const Weight alt =
            ku + (padded ? kPadScale + padding_salt(a.edge, policy) : 1);
        if (alt < kt) {
          if (kt == graph::kUnreachable) order.push_back(a.to);
          tree.settle(a.to, alt, u, a.edge, /*unique=*/padded);
        } else if (padded && alt == kt) {
          // A second arc from the parent itself compares equal and keeps
          // the first.
          const NodeId p = tree.parent(a.to);
          if (std::pair(ku, u) < std::pair(tree.key(p), p)) {
            tree.settle(a.to, alt, u, a.edge);
          }
          tree.set_unique(a.to, false);
        }
      }
    }
    if (padded && end < order.size()) {
      // dist() divides the padded key by kPadScale; the quotient is the
      // true cost only while the path's salt sum stays below kPadScale.
      RBPC_ASSERT(layer + 1 < kPadScale / kMaxSalt);
      for (std::size_t i = end; i < order.size(); ++i) {
        const NodeId v = order[i];
        tree.set_unique(v, tree.unique(v) && tree.unique(tree.parent(v)));
      }
    }
    begin = end;
  }
  tree.sum_subtree_arcs(g, order);
  // The layer list stands in for the heap: a push is a discovery, a pop a
  // scan (order.size() of each).
  flush_kernel_counts(order.size(), order.size(), relax_attempts);
}

/// Heap Dijkstra with lazy deletion on workspace scratch (no per-call
/// allocations once the workspace is warm), for Metric::Weighted; the hop
/// metric goes to hop_tree_into. When options.padded, the heap key is the
/// padded cost, from which the tree derives the true cost (padding
/// preserves strict order of true costs, so the padded-optimal path is a
/// true shortest path).
///
/// The node words (spf/tree.hpp) come out of the same run. Every in-arc
/// that achieves v's final key comes from a node settled before v (steps
/// are positive), so it relaxes v: a relaxation that matches v's current
/// key sets v's tie flag and a strictly better one clears it, and at
/// settle v is unique iff its parent is and it has no tie. The settle
/// order, kept in the workspace's node list, then feeds the subtree-arc
/// pass.
void dijkstra_tree_into(const Graph& g, NodeId source, const FailureMask& mask,
                        const SpfOptions& options, SpfWorkspace& ws,
                        ShortestPathTree& tree) {
  tree.reset(source, g.num_nodes(), options.metric, options.padded,
             options.padded ? options.tiebreak : TiebreakPolicy::Arbitrary);

  ws.begin(g.num_nodes());
  FourAryHeap& heap = ws.heap();
  std::vector<NodeId>& order = ws.scratch_nodes();
  ws.node(source).key = 0;
  heap.push(0, source);
  std::uint64_t pushes = 1;
  std::uint64_t pops = 0;
  std::uint64_t relax_attempts = 0;

  while (!heap.empty()) {
    const auto [k, v] = heap.pop();
    ++pops;
    SpfWorkspace::Node& nv = ws.node(v);
    if (nv.settled || k != nv.key) continue;  // stale entry
    nv.settled = true;
    // dist() divides the padded key by kPadScale; the quotient is the true
    // cost only while the path's salt sum stays below kPadScale.
    RBPC_ASSERT(!options.padded || nv.hops < kPadScale / kMaxSalt);
    tree.settle(v, nv.key, nv.parent, nv.parent_edge,
                !nv.tie && (v == source || tree.unique(nv.parent)));
    order.push_back(v);
    if (v == options.stop_at) break;
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask.edge_alive(g, a.edge)) continue;
      ++relax_attempts;
      SpfWorkspace::Node& nt = ws.node(a.to);
      if (nt.settled) continue;
      const Weight step =
          options.padded
              ? padded_weight(g, a.edge, options.metric, options.tiebreak)
              : metric_weight(g, a.edge, options.metric);
      const Weight alt = nv.key + step;
      if (alt < nt.key) {
        nt.key = alt;
        nt.hops = nv.hops + 1;
        nt.parent = v;
        nt.parent_edge = a.edge;
        nt.tie = false;
        heap.push(alt, a.to);
        ++pushes;
      } else if (alt == nt.key) {
        nt.tie = true;
      }
    }
  }
  tree.sum_subtree_arcs(g, order);
  flush_kernel_counts(pushes, pops, relax_attempts);
}

}  // namespace

void shortest_tree_into(const Graph& g, NodeId source, const FailureMask& mask,
                        SpfOptions options, SpfWorkspace& workspace,
                        ShortestPathTree& out) {
  require(source < g.num_nodes(), "shortest_tree: source out of range");
  require(mask.node_alive(source), "shortest_tree: source router is failed");
  if (options.metric == Metric::Hops) {
    hop_tree_into(g, source, mask, options, workspace, out);
  } else {
    dijkstra_tree_into(g, source, mask, options, workspace, out);
  }
}

ShortestPathTree shortest_tree(const Graph& g, NodeId source,
                               const FailureMask& mask, SpfOptions options) {
  ShortestPathTree tree;
  shortest_tree_into(g, source, mask, options, thread_workspace(), tree);
  return tree;
}

Weight bounded_distance(const Graph& g, NodeId s, NodeId t,
                        const FailureMask& mask, SpfOptions options,
                        SpfWorkspace& fwd, SpfWorkspace& bwd) {
  require(!g.directed(), "bounded_distance: undirected graphs only");
  require(!options.padded, "bounded_distance: distance queries never pad");
  require(s < g.num_nodes() && t < g.num_nodes(),
          "bounded_distance: node out of range");
  if (!mask.node_alive(s) || !mask.node_alive(t)) return graph::kUnreachable;
  if (s == t) return 0;

  SpfWorkspace* ws[2] = {&fwd, &bwd};
  const NodeId roots[2] = {s, t};
  for (int side = 0; side < 2; ++side) {
    ws[side]->begin(g.num_nodes());
    ws[side]->node(roots[side]).key = 0;
    ws[side]->heap().push(0, roots[side]);
  }

  std::uint64_t pushes = 2;
  std::uint64_t pops = 0;
  std::uint64_t relax_attempts = 0;
  Weight best = graph::kUnreachable;

  // Invariant: best is the length of some real s-t path (or kUnreachable).
  // Any yet-undiscovered path must cross both frontiers, so it costs at
  // least top(fwd) + top(bwd); once that bound reaches best we are done.
  // A side running dry means its ball is complete: nothing new can appear.
  while (!ws[0]->heap().empty() && !ws[1]->heap().empty()) {
    if (ws[0]->heap().top().first + ws[1]->heap().top().first >= best) break;
    const int side = ws[0]->heap().top().first <= ws[1]->heap().top().first
                         ? 0
                         : 1;
    SpfWorkspace& mine = *ws[side];
    SpfWorkspace& other = *ws[1 - side];
    const auto [k, v] = mine.heap().pop();
    ++pops;
    SpfWorkspace::Node& nv = mine.node(v);
    if (nv.settled || k != nv.key) continue;  // stale entry
    nv.settled = true;
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask.edge_alive(g, a.edge)) continue;
      ++relax_attempts;
      SpfWorkspace::Node& nt = mine.node(a.to);
      const Weight alt = k + metric_weight(g, a.edge, options.metric);
      if (!nt.settled && alt < nt.key) {
        nt.key = alt;
        mine.heap().push(alt, a.to);
        ++pushes;
      }
      // Meeting check: any label on the other side is the length of a real
      // path from the other endpoint, so alt + that label is a real s-t
      // path length (undirectedness makes the halves composable).
      if (other.touched(a.to)) {
        const Weight there = other.node(a.to).key;
        if (there != graph::kUnreachable && alt + there < best) {
          best = alt + there;
        }
      }
    }
  }
  flush_kernel_counts(pushes, pops, relax_attempts);
  return best;
}

graph::Path shortest_path(const Graph& g, NodeId s, NodeId t,
                          const FailureMask& mask, SpfOptions options) {
  require(t < g.num_nodes(), "shortest_path: target out of range");
  options.stop_at = t;
  const ShortestPathTree tree = shortest_tree(g, s, mask, options);
  if (!tree.reachable(t)) return graph::Path{};
  return tree.path_to(g, t);
}

Weight distance(const Graph& g, NodeId s, NodeId t, const FailureMask& mask,
                SpfOptions options) {
  require(t < g.num_nodes(), "distance: target out of range");
  options.stop_at = t;
  return shortest_tree(g, s, mask, options).dist(t);
}

Weight approx_hop_diameter(const Graph& g, const FailureMask& mask,
                           std::size_t sweeps) {
  require(!g.directed(), "approx_hop_diameter: undirected graphs only");
  require(sweeps >= 1, "approx_hop_diameter: need at least one sweep");
  // First alive node as the initial root.
  NodeId root = graph::kInvalidNode;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mask.node_alive(v)) {
      root = v;
      break;
    }
  }
  if (root == graph::kInvalidNode) return 0;

  Weight best = 0;
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    const ShortestPathTree tree =
        shortest_tree(g, root, mask, SpfOptions{.metric = Metric::Hops});
    NodeId farthest = root;
    Weight far_dist = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!tree.reachable(v)) continue;
      if (tree.dist(v) > far_dist) {
        far_dist = tree.dist(v);
        farthest = v;
      }
    }
    best = std::max(best, far_dist);
    if (farthest == root) break;  // eccentricity 0: isolated component
    root = farthest;
  }
  return best;
}

}  // namespace rbpc::spf
