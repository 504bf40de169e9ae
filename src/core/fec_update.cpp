#include "core/fec_update.hpp"

#include <algorithm>

#include "core/restoration.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::FailureMask;
using graph::NodeId;
using graph::Path;

FecUpdatePlan compute_fec_update_plan(BasePathSet& base, EdgeId link) {
  const graph::Graph& g = base.graph();
  require(link < g.num_edges(), "compute_fec_update_plan: link out of range");

  FecUpdatePlan plan;
  plan.link = link;
  FailureMask mask;
  mask.fail_edge(link);

  // One scratch across the whole n^2 scan: primaries and backups are
  // probed through the arena and only the affected pairs' chains are
  // materialized into the stored plan (the owning boundary).
  RestoreScratch scratch;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      scratch.arena.clear();
      const graph::PathView primary =
          scratch.arena.view(base.base_path_ref(s, t, scratch.arena));
      if (primary.empty() ||
          std::find(primary.edges().begin(), primary.edges().end(), link) ==
              primary.edges().end()) {
        continue;
      }
      FecUpdate update;
      update.src = s;
      update.dst = t;
      source_rbpc_restore_into(base, s, t, mask, scratch);
      if (scratch.restored()) {
        update.chain = scratch.decomposition.materialize(g, scratch.arena);
      }
      plan.updates.push_back(std::move(update));
    }
  }
  return plan;
}

}  // namespace rbpc::core
