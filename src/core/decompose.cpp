#include "core/decompose.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "obs/trace.hpp"
#include "spf/metric.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::NodeId;
using graph::Path;
using graph::Weight;

std::size_t Decomposition::base_count() const {
  return static_cast<std::size_t>(
      std::count(is_base.begin(), is_base.end(), true));
}

std::size_t DecompositionRef::base_count() const {
  return static_cast<std::size_t>(
      std::count(is_base.begin(), is_base.end(), std::uint8_t{1}));
}

Decomposition DecompositionRef::materialize(const graph::Graph& g,
                                            const graph::PathArena& arena) const {
  Decomposition out;
  out.pieces.reserve(pieces.size());
  out.is_base.reserve(is_base.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    out.pieces.push_back(arena.to_path(g, pieces[i]));
    out.is_base.push_back(is_base[i] != 0);
  }
  return out;
}

Path Decomposition::joined() const {
  Path out;
  std::size_t total = 0;
  for (const Path& p : pieces) total += p.hops();
  out.reserve(total);
  for (const Path& p : pieces) out.append(p);
  return out;
}

namespace {

/// The greedy cover, the one loop both forms share: repeatedly takes the
/// longest prefix of the rest of `route` that is a base path
/// (BasePathSet::longest_prefix), or its first hop as a loose edge
/// (Theorem 2's interleaved edges) when not even that hop is a member.
/// Reports each piece as emit(from, to, is_base), node indices into
/// `route`, in route order.
template <typename Emit>
void greedy_cover(BasePathSet& base, graph::PathView route, Emit&& emit) {
  RBPC_TRACE_SPAN("decompose");
  require(!route.empty(), "greedy_decompose: empty route");
  const std::size_t last = route.num_nodes() - 1;
  std::size_t pieces = 0;
  for (std::size_t pos = 0; pos < last; ++pieces) {
    const std::size_t end = base.longest_prefix(route, pos);
    const bool is_base = end > pos;
    const std::size_t to = is_base ? end : pos + 1;
    emit(pos, to, is_base);
    pos = to;
  }
  // Concatenation length — the paper's figure of merit (pieces per
  // restored route).
  static obs::Histogram histogram =
      obs::MetricsRegistry::global().histogram("decompose.pieces");
  histogram.record(pieces);
}

}  // namespace

Decomposition greedy_decompose(BasePathSet& base, const Path& route) {
  Decomposition out;
  greedy_cover(base, route.view(),
               [&](std::size_t from, std::size_t to, bool is_base) {
                 out.pieces.push_back(route.subpath(from, to));
                 out.is_base.push_back(is_base);
               });
  return out;
}

void greedy_decompose_into(BasePathSet& base, const graph::PathArena& arena,
                           graph::PathRef route, DecompositionRef& out) {
  out.clear();
  greedy_cover(base, arena.view(route),
               [&](std::size_t from, std::size_t to, bool is_base) {
                 out.pieces.push_back(arena.subref(route, from, to));
                 out.is_base.push_back(is_base ? 1 : 0);
               });
}

void overlay_decompose_into(BasePathSet& base, const graph::FailureMask& mask,
                            NodeId s, NodeId t, graph::PathArena& arena,
                            OverlayWorkspace& ws, DecompositionRef& out) {
  RBPC_TRACE_SPAN("decompose.overlay");
  const graph::Graph& g = base.graph();
  require(s < g.num_nodes() && t < g.num_nodes(),
          "overlay_decompose: node out of range");
  require(mask.node_alive(s) && mask.node_alive(t),
          "overlay_decompose: endpoint router is failed");
  out.clear();

  using State = OverlayWorkspace::State;
  using HeapItem = OverlayWorkspace::HeapItem;
  std::vector<State>& states = ws.states;
  states.assign(g.num_nodes(), State{});

  // Binary min-heap via push_heap/pop_heap over operator>. HeapItem
  // comparison is total over (cost, pieces, node), so the pop sequence is
  // the sorted order — identical to the std::priority_queue the legacy
  // implementation used, regardless of heap internals.
  std::vector<HeapItem>& heap = ws.heap;
  heap.clear();
  const auto heap_push = [&](HeapItem item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  const auto heap_pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const HeapItem item = heap.back();
    heap.pop_back();
    return item;
  };

  states[s].cost = 0;
  states[s].pieces = 0;
  heap_push({0, 0, s});

  auto relax = [&](NodeId to, Weight cost, std::uint32_t pieces, NodeId pred,
                   bool is_base, EdgeId pred_edge) {
    State& st = states[to];
    if (st.settled) return;
    if (cost < st.cost || (cost == st.cost && pieces < st.pieces)) {
      st.cost = cost;
      st.pieces = pieces;
      st.pred = pred;
      st.pred_is_base = is_base;
      st.pred_edge = pred_edge;
      heap_push({cost, pieces, to});
    }
  };

  while (!heap.empty()) {
    const HeapItem item = heap_pop();
    State& st = states[item.node];
    if (st.settled || item.cost != st.cost || item.pieces != st.pieces) continue;
    st.settled = true;
    if (item.node == t) break;
    const NodeId x = item.node;

    // Moves along surviving base paths x -> y (cost of the path, 1 piece).
    // base_path is defined on the unfailed network; survival is re-checked
    // against mask. The sets' oracles cache the SPF tree at x, so probing
    // all targets costs O(n * path length), not n tree builds; targets the
    // cached tree cannot even reach are skipped before materializing a
    // path at all (connected() is an O(1) probe of the same tree).
    // Candidate paths are stored in the arena only while being inspected:
    // the mark/rewind pair reclaims each probe, so the scan consumes no
    // storage no matter how many targets it touches.
    for (NodeId y = 0; y < g.num_nodes(); ++y) {
      if (y == x || !mask.node_alive(y) || !base.connected(x, y)) continue;
      const graph::PathArena::Mark probe = arena.mark();
      const graph::PathView bp = arena.view(base.base_path_ref(x, y, arena));
      if (bp.empty() || !bp.alive(g, mask)) {
        arena.rewind(probe);
        continue;
      }
      Weight cost = 0;
      for (EdgeId e : bp.edges()) cost += spf::metric_weight(g, e, base.metric());
      arena.rewind(probe);
      relax(y, st.cost + cost, st.pieces + 1, x, /*is_base=*/true,
            graph::kInvalidEdge);
    }
    // Moves along surviving single edges (Theorem 2 connectors).
    for (const graph::Arc& a : g.arcs(x)) {
      if (!mask.edge_alive(g, a.edge)) continue;
      relax(a.to, st.cost + spf::metric_weight(g, a.edge, base.metric()),
            st.pieces + 1, x, /*is_base=*/false, a.edge);
    }
  }

  if (states[t].cost == graph::kUnreachable) return;

  // Reconstruct pieces t <- ... <- s, then reverse.
  NodeId cur = t;
  while (cur != s) {
    const State& st = states[cur];
    if (st.pred_is_base) {
      out.pieces.push_back(base.base_path_ref(st.pred, cur, arena));
      out.is_base.push_back(1);
    } else {
      arena.start();
      arena.add_node(st.pred);
      arena.add_hop(st.pred_edge, cur);
      const graph::PathRef edge_piece = arena.commit();
      // An edge that happens to be a base path counts as one.
      out.pieces.push_back(edge_piece);
      out.is_base.push_back(base.contains(arena.view(edge_piece)) ? 1 : 0);
    }
    cur = st.pred;
  }
  std::reverse(out.pieces.begin(), out.pieces.end());
  std::reverse(out.is_base.begin(), out.is_base.end());
}

Decomposition overlay_decompose(BasePathSet& base,
                                const graph::FailureMask& mask, NodeId s,
                                NodeId t) {
  graph::PathArena arena;
  OverlayWorkspace ws;
  DecompositionRef ref;
  overlay_decompose_into(base, mask, s, t, arena, ws, ref);
  return ref.materialize(base.graph(), arena);
}

}  // namespace rbpc::core
