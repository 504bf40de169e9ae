#include "core/restoration.hpp"

#include "obs/trace.hpp"
#include "spf/bypass.hpp"
#include "spf/spf.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using graph::Path;

Restoration RestoreScratch::materialize(const graph::Graph& g) const {
  Restoration out;
  if (backup.empty()) return out;
  out.backup = arena.to_path(g, backup);
  out.decomposition = decomposition.materialize(g, arena);
  return out;
}

void source_rbpc_restore_into(BasePathSet& base, NodeId s, NodeId t,
                              const FailureMask& mask,
                              RestoreScratch& scratch) {
  RBPC_TRACE_SPAN("restore.source");
  static obs::Counter restored =
      obs::MetricsRegistry::global().counter("restore.source.restored");
  static obs::Counter unrestorable =
      obs::MetricsRegistry::global().counter("restore.source.unrestorable");
  scratch.arena.clear();
  scratch.decomposition.clear();
  scratch.backup = graph::PathRef{};
  require(t < base.graph().num_nodes(),
          "source_rbpc_restore: target out of range");
  // Canonical (padded) route so the result is deterministic and, with a
  // canonical base set, maximally decomposable. The stop_at early exit
  // mirrors spf::shortest_path.
  spf::shortest_tree_into(
      base.graph(), s, mask,
      spf::SpfOptions{.metric = base.metric(), .padded = true, .stop_at = t},
      scratch.workspace, scratch.tree);
  if (!scratch.tree.reachable(t)) {
    unrestorable.inc();
    return;
  }
  scratch.backup = scratch.tree.path_to_ref(base.graph(), t, scratch.arena);
  greedy_decompose_into(base, scratch.arena, scratch.backup,
                        scratch.decomposition);
  restored.inc();
}

Restoration source_rbpc_restore(BasePathSet& base, NodeId s, NodeId t,
                                const FailureMask& mask) {
  // One scratch per thread, as spf::thread_workspace() keeps one SPF
  // workspace: the owning form is the arena kernel plus materialize().
  thread_local RestoreScratch scratch;
  source_rbpc_restore_into(base, s, t, mask, scratch);
  return scratch.materialize(base.graph());
}

namespace {

/// Shared precondition checks; returns R1's index (== fail_index).
std::size_t check_local_args(const Path& lsp_path, std::size_t fail_index) {
  require(!lsp_path.empty() && lsp_path.hops() >= 1,
          "local RBPC: LSP path must have at least one hop");
  require(fail_index < lsp_path.hops(),
          "local RBPC: fail_index must identify a link of the LSP");
  return fail_index;
}

}  // namespace

Path end_route_path(const Graph& g, spf::Metric metric, const Path& lsp_path,
                    std::size_t fail_index, const FailureMask& mask) {
  const std::size_t r1 = check_local_args(lsp_path, fail_index);
  require(mask.edge_failed(lsp_path.edge(fail_index)),
          "end_route_path: the identified link is not failed in the mask");
  const NodeId r1_node = lsp_path.node(r1);
  const NodeId dst = lsp_path.target();
  const Path tail = spf::shortest_path(
      g, r1_node, dst, mask, spf::SpfOptions{.metric = metric, .padded = true});
  if (tail.empty() && r1_node != dst) return Path{};
  return lsp_path.subpath(0, r1).concat(tail);
}

Path edge_bypass_path(const Graph& g, spf::Metric metric, const Path& lsp_path,
                      std::size_t fail_index, const FailureMask& mask) {
  const std::size_t r1 = check_local_args(lsp_path, fail_index);
  const graph::EdgeId failed = lsp_path.edge(fail_index);
  require(mask.edge_failed(failed),
          "edge_bypass_path: the identified link is not failed in the mask");
  Path bypass = spf::min_cost_bypass(g, failed, mask, metric);
  if (bypass.empty()) return Path{};
  // The bypass runs e.u -> e.v; orient it R1 -> next router of the LSP.
  if (bypass.source() != lsp_path.node(r1)) bypass = bypass.reversed();
  RBPC_ASSERT(bypass.source() == lsp_path.node(r1) &&
              bypass.target() == lsp_path.node(r1 + 1));
  return lsp_path.subpath(0, r1)
      .concat(bypass)
      .concat(lsp_path.suffix_from(r1 + 1));
}

}  // namespace rbpc::core
