#include "lsdb/lsdb.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace rbpc::lsdb {

using graph::EdgeId;
using graph::NodeId;

bool Lsdb::apply(const LinkEvent& ev) {
  switch (gate_generation(ev.generation, applied_generation(ev.edge))) {
    case GenerationVerdict::kDuplicate:
      ++duplicates_;
      return false;
    case GenerationVerdict::kStale:
      ++stale_;
      return false;
    case GenerationVerdict::kApply:
      break;
  }
  if (ev.generation != 0) {
    if (generation_.size() <= ev.edge) generation_.resize(ev.edge + 1, 0);
    generation_[ev.edge] = ev.generation;
  }
  if (ev.up) {
    view_.restore_edge(ev.edge);
  } else {
    view_.fail_edge(ev.edge);
  }
  return true;
}

std::uint64_t Lsdb::applied_generation(EdgeId e) const {
  return e < generation_.size() ? generation_[e] : 0;
}

std::vector<LinkStateRecord> Lsdb::export_records() const {
  std::vector<LinkStateRecord> out;
  // Touched edges: any with an applied generation, plus any failed edge
  // (unsequenced failures carry generation 0 but are still state).
  std::size_t edges = generation_.size();
  for (const EdgeId e : view_.failed_edges()) {
    edges = std::max<std::size_t>(edges, static_cast<std::size_t>(e) + 1);
  }
  for (EdgeId e = 0; e < edges; ++e) {
    const bool down = view_.edge_failed(e);
    const std::uint64_t gen = applied_generation(e);
    if (down || gen != 0) out.push_back({e, down, gen});
  }
  return out;
}

std::size_t Lsdb::import_records(const std::vector<LinkStateRecord>& records) {
  std::size_t applied = 0;
  for (const LinkStateRecord& r : records) {
    if (apply({r.edge, !r.down, r.generation})) ++applied;
  }
  return applied;
}

bool Lsdb::knows_down(EdgeId e) const { return view_.edge_failed(e); }

FloodOutcome flood_notification_times(const graph::Graph& g,
                                      const graph::FailureMask& mask_after,
                                      EdgeId e, SimTime t0,
                                      const FloodParams& params) {
  require(e < g.num_edges(), "flood_notification_times: edge out of range");
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  FloodOutcome out;
  out.notified_at.assign(g.num_nodes(), kInf);

  // Dijkstra over (link_delay + process_delay) from both endpoints.
  using Item = std::pair<SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const graph::Edge& ed = g.edge(e);
  for (NodeId origin : {ed.u, ed.v}) {
    if (!mask_after.node_alive(origin)) continue;
    const SimTime start = t0 + params.detect_delay;
    if (start < out.notified_at[origin]) {
      out.notified_at[origin] = start;
      heap.push({start, origin});
    }
  }
  while (!heap.empty()) {
    const auto [t, v] = heap.top();
    heap.pop();
    if (t != out.notified_at[v]) continue;
    for (const graph::Arc& a : g.arcs(v)) {
      if (!mask_after.edge_alive(g, a.edge)) continue;
      const SimTime arrival = t + params.process_delay + params.link_delay;
      if (arrival < out.notified_at[a.to]) {
        out.notified_at[a.to] = arrival;
        heap.push({arrival, a.to});
      }
    }
  }
  return out;
}

}  // namespace rbpc::lsdb
