#include "spf/incremental.hpp"

#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using graph::Weight;

/// True for the flavors whose parents follow Dijkstra's first-achiever
/// rule (weighted, and every padded run, heap or layered), which the
/// repair can reproduce; the plain hop flavor keeps BFS's first
/// discoverer and is not repairable.
bool heap_flavor(const SpfOptions& options) {
  return options.metric == Metric::Weighted || options.padded;
}

/// Brings the node words (spf/tree.hpp) of `out` — `base` with its
/// orphaned `region` re-settled — up to date under `mask`, touching only
/// what the failure changed. `settled` lists the region nodes the repair
/// reached, in settle order, each with its tie flag from the repair's
/// relaxations; the others are unreachable (word 0).
///
/// Subtree arcs. Every node outside the region keeps its parent, so a
/// reached region node's subtree holds region nodes only, and the region
/// sums itself in reverse settle order. A region subtree that hangs from
/// an intact node adds its total to every ancestor of that node; each
/// orphaned subtree takes its old total off its old ancestors.
///
/// Unique bits. A region node is unique iff its parent is and it has no
/// tie, as in the heap kernel. An intact node keeps its key and parent, so
/// its achiever count can change only through a failed arc or a region
/// neighbour r. Keys only rise, and an intact node's key is at most r's
/// old key plus the link, so r achieves it now only if r achieved it
/// before: recounting the intact nodes a region node used to achieve, and
/// the ends of failed links, covers every change. All are decided in key
/// order, each from its parent's final bit (a parent's key is smaller). An
/// intact node whose bit flips queues its children; one whose bit stands
/// ends the propagation there.
void update_node_words(const Graph& g, const ShortestPathTree& base,
                       const FailureMask& mask, const SpfOptions& options,
                       const std::vector<EdgeId>& failed_edges,
                       const std::vector<NodeId>& region,
                       const std::vector<NodeId>& settled, SpfWorkspace& ws,
                       ShortestPathTree& out) {
  const auto in_region = [&](NodeId x) {
    return ws.touched(x) && ws.node(x).in_region[0];
  };
  for (const NodeId r : region) {
    const NodeId p = base.parent(r);
    if (in_region(p)) continue;  // not the root of an orphaned subtree
    const std::uint32_t arcs = base.subtree_arcs(r);
    for (NodeId a = p; a != graph::kInvalidNode; a = out.parent(a)) {
      out.add_subtree_arcs(a, 0u - arcs);
    }
  }
  for (std::size_t i = settled.size(); i-- > 0;) {
    const NodeId v = settled[i];
    out.add_subtree_arcs(v, static_cast<std::uint32_t>(g.degree(v)));
    const std::uint32_t arcs = out.subtree_arcs(v);
    for (NodeId a = out.parent(v); a != graph::kInvalidNode;
         a = out.parent(a)) {
      out.add_subtree_arcs(a, arcs);
      if (in_region(a)) break;  // a's own total carries this one upwards
    }
  }

  const auto step = [&](EdgeId e) {
    return options.padded
               ? padded_weight(g, e, options.metric, options.tiebreak)
               : metric_weight(g, e, options.metric);
  };
  FourAryHeap& heap = ws.heap();
  heap.clear();
  const auto offer = [&](NodeId v) {
    if (out.reachable(v) && !in_region(v)) heap.push(out.key(v), v);
  };
  for (const EdgeId e : failed_edges) {
    offer(g.edge(e).u);
    offer(g.edge(e).v);
  }
  for (const NodeId r : region) {
    const Weight was = base.key(r);
    for (const graph::Arc& a : g.arcs(r)) {
      if (!out.reachable(a.to) || in_region(a.to)) continue;
      const Weight key = out.key(a.to);
      if (was < key && was + step(a.edge) == key) offer(a.to);
    }
  }
  const auto sole_achiever = [&](NodeId v) {
    int achievers = 0;
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask.edge_alive(g, a.edge) || !out.reachable(a.to)) continue;
      if (out.key(a.to) + step(a.edge) == out.key(v) && ++achievers > 1) {
        break;
      }
    }
    return achievers == 1;
  };
  // Merge the region, already in key order, with the intact candidates.
  std::size_t next = 0;
  while (next < settled.size() || !heap.empty()) {
    if (heap.empty() ||
        (next < settled.size() && out.key(settled[next]) < heap.top().first)) {
      const NodeId v = settled[next++];
      out.set_unique(v, !ws.node(v).tie && out.unique(out.parent(v)));
      continue;
    }
    const NodeId v = heap.pop().second;
    SpfWorkspace::Node& nv = ws.node(v);
    if (nv.in_region[1]) continue;  // already decided
    nv.in_region[1] = true;
    const bool unique = v == out.source() ||
                        (out.unique(out.parent(v)) && sole_achiever(v));
    if (unique == out.unique(v)) continue;
    out.set_unique(v, unique);
    for (const graph::Arc& a : g.arcs(v)) {
      if (out.parent_edge(a.to) == a.edge && out.parent(a.to) == v) {
        offer(a.to);
      }
    }
  }
}

}  // namespace

void repair_tree_into(const Graph& g, const ShortestPathTree& base,
                      const FailureMask& mask, SpfOptions options,
                      SpfWorkspace& ws, ShortestPathTree& out,
                      IncrementalOptions incremental, RepairReport* report) {
  require(&out != &base, "repair_tree_into: out must not alias base");
  const NodeId source = base.source();
  require(mask.node_alive(source), "repair_tree: source router is failed");
  require(options.stop_at == graph::kInvalidNode,
          "repair_tree: repair is defined for full trees only");
  require(options.metric == base.metric() && options.padded == base.padded() &&
              (!options.padded || options.tiebreak == base.tiebreak()),
          "repair_tree: options disagree with the base tree's flavor");
  require(base.num_nodes() == g.num_nodes(),
          "repair_tree: base tree does not match the graph");

  const auto finish = [&](RepairKind kind, std::size_t orphaned) {
    // Repair outcome mix (identity : local repair : full fallback) and
    // orphan-region sizes — the fallback-to-full rate and the paper's
    // damage-proportionality claim in two metrics.
    static obs::Counter identities =
        obs::MetricsRegistry::global().counter("repair.identity");
    static obs::Counter locals =
        obs::MetricsRegistry::global().counter("repair.local");
    static obs::Counter fallbacks =
        obs::MetricsRegistry::global().counter("repair.scratch_fallback");
    static obs::Histogram orphan_sizes =
        obs::MetricsRegistry::global().histogram("spf.repair.orphaned");
    switch (kind) {
      case RepairKind::kIdentity: identities.inc(); break;
      case RepairKind::kRepaired:
        locals.inc();
        orphan_sizes.record(orphaned);
        break;
      case RepairKind::kScratch: fallbacks.inc(); break;
    }
    if (report != nullptr) {
      report->kind = kind;
      report->orphaned = orphaned;
    }
  };

  if (g.directed() || !heap_flavor(options)) {
    // No local characterization of the from-scratch tie-breaking (BFS) or
    // of incoming arcs (directed CSR): recompute.
    finish(RepairKind::kScratch, 0);
    shortest_tree_into(g, source, mask, options, ws, out);
    return;
  }
  if (mask.empty()) {
    finish(RepairKind::kIdentity, 0);
    out = base;
    return;
  }

  ws.begin(g.num_nodes());
  std::vector<NodeId>& region = ws.scratch_nodes();
  std::vector<NodeId>& settled = ws.scratch_nodes(1);
  const std::vector<EdgeId> failed_edges = mask.failed_edges();
  const auto mark = [&](NodeId x) {
    SpfWorkspace::Node& nx = ws.node(x);
    if (!nx.in_region[0]) {
      nx.in_region[0] = true;
      region.push_back(x);
    }
  };

  // Orphan roots: nodes cut from the tree directly by a failure — a failed
  // parent edge, a failed parent router, or being failed themselves.
  for (const EdgeId e : failed_edges) {
    const graph::Edge& ed = g.edge(e);
    if (base.parent_edge(ed.u) == e) mark(ed.u);
    if (base.parent_edge(ed.v) == e) mark(ed.v);
  }
  for (const NodeId u : mask.failed_nodes()) {
    if (u >= g.num_nodes() || !base.reachable(u)) continue;
    mark(u);
    for (const graph::Arc& a : g.arcs(u)) {
      if (base.parent(a.to) == u && base.parent_edge(a.to) == a.edge) {
        mark(a.to);
      }
    }
  }
  if (region.empty()) {
    // Every failed element was outside the tree: removing a non-tree edge
    // changes no key and no first-achieving relaxation, so the tree is
    // unchanged verbatim — except for unique bits the removed link made.
    finish(RepairKind::kIdentity, 0);
    out = base;
    update_node_words(g, base, mask, options, failed_edges, region, settled,
                      ws, out);
    return;
  }

  // Collect the orphaned subtrees by descending tree edges through the
  // graph adjacency (ShortestPathTree stores no child lists; this keeps
  // the cost proportional to the region's degree sum, not to n). Bail out
  // to from-scratch once the region outgrows the fallback threshold.
  const std::size_t limit = static_cast<std::size_t>(
      incremental.max_affected_fraction *
      static_cast<double>(g.num_nodes()));
  for (std::size_t head = 0; head < region.size(); ++head) {
    if (region.size() > limit) {
      finish(RepairKind::kScratch, 0);
      shortest_tree_into(g, source, mask, options, ws, out);
      return;
    }
    const NodeId v = region[head];
    for (const graph::Arc& a : g.arcs(v)) {
      if (base.parent(a.to) == v && base.parent_edge(a.to) == a.edge) {
        mark(a.to);
      }
    }
  }

  out = base;
  for (const NodeId v : region) {
    out.settle(v, graph::kUnreachable, graph::kInvalidNode,
               graph::kInvalidEdge);
  }

  // Re-relax the region. Offers carry the offering node's heap key so that
  // equal-key parent ties resolve by (key(u), u, edge) — the same winner a
  // from-scratch run's first-achieving relaxation picks (see the header).
  FourAryHeap& heap = ws.heap();
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t relax_attempts = 0;
  const auto relax = [&](NodeId to, EdgeId e, NodeId from, Weight from_key) {
    ++relax_attempts;
    const Weight step =
        options.padded ? padded_weight(g, e, options.metric, options.tiebreak)
                       : metric_weight(g, e, options.metric);
    const Weight alt = from_key + step;
    SpfWorkspace::Node& nt = ws.node(to);
    if (nt.settled) return;
    // Every achiever of `to`'s final key offers it (the seeds cover the
    // intact ones), so the tie flag ends up as the heap kernel's.
    if (alt == nt.key) nt.tie = true;
    const bool better =
        alt < nt.key ||
        (alt == nt.key &&
         std::tuple(from_key, from, e) <
             std::tuple(nt.parent_key, nt.parent, nt.parent_edge));
    if (!better) return;
    const bool improved = alt < nt.key;
    if (improved) nt.tie = false;
    nt.key = alt;
    nt.parent = from;
    nt.parent_edge = e;
    nt.parent_key = from_key;
    if (improved) {
      heap.push(alt, to);
      ++pushes;
    }
  };

  // Seed with every surviving offer from the intact part of the tree into
  // the region (the graph is undirected, so scanning a region node's arcs
  // enumerates its incoming boundary edges).
  for (const NodeId v : region) {
    if (!mask.node_alive(v)) continue;  // failed routers stay unreachable
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask.edge_alive(g, a.edge)) continue;
      const NodeId u = a.to;
      if (ws.node(u).in_region[0] || !base.reachable(u)) continue;
      relax(v, a.edge, u, base.key(u));
    }
  }

  // Local Dijkstra over the region; nodes the heap never reaches stay
  // reset (unreachable), exactly as a from-scratch run leaves them.
  while (!heap.empty()) {
    const auto [k, v] = heap.pop();
    ++pops;
    SpfWorkspace::Node& nv = ws.node(v);
    if (nv.settled || k != nv.key) continue;  // stale entry
    nv.settled = true;
    out.settle(v, nv.key, nv.parent, nv.parent_edge);
    settled.push_back(v);
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask.edge_alive(g, a.edge)) continue;
      if (!ws.node(a.to).in_region[0]) continue;  // intact labels are final
      relax(a.to, a.edge, v, nv.key);
    }
  }

  // One flush per repair, not per heap op: the loop above pays a plain
  // register increment, the shared counters one striped add each.
  static obs::Counter heap_pushes =
      obs::MetricsRegistry::global().counter("spf.heap.pushes");
  static obs::Counter heap_pops =
      obs::MetricsRegistry::global().counter("spf.heap.pops");
  static obs::Counter relaxations =
      obs::MetricsRegistry::global().counter("spf.relaxations");
  heap_pushes.add(pushes);
  heap_pops.add(pops);
  relaxations.add(relax_attempts);
  update_node_words(g, base, mask, options, failed_edges, region, settled, ws,
                    out);
  finish(RepairKind::kRepaired, region.size());
}

ShortestPathTree repair_tree(const Graph& g, const ShortestPathTree& base,
                             const FailureMask& mask, SpfOptions options,
                             SpfWorkspace& ws, IncrementalOptions incremental,
                             RepairReport* report) {
  ShortestPathTree out;
  repair_tree_into(g, base, mask, options, ws, out, incremental, report);
  return out;
}

}  // namespace rbpc::spf
