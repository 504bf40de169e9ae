// Restoration engines (graph level): source-router RBPC and the two local
// RBPC flavors (paper Sections 4 and 4.2).
//
// These compute the *routes* each scheme would use; the MPLS-table side
// (FEC updates / ILM splices) lives in core/controller.hpp on top of the
// mpls::Network simulator.
#pragma once

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "graph/failure.hpp"
#include "graph/path.hpp"
#include "graph/path_arena.hpp"
#include "spf/metric.hpp"
#include "spf/tree.hpp"
#include "spf/workspace.hpp"

namespace rbpc::core {

/// Result of one source-RBPC restoration.
struct Restoration {
  /// The new shortest route in the failed network; empty when the failure
  /// disconnected the pair (restoration impossible).
  graph::Path backup;
  /// Cover of `backup` by base paths + loose edges.
  Decomposition decomposition;

  bool restored() const { return !backup.empty(); }
  /// The paper's "PC length" for this restoration.
  std::size_t pc_length() const { return decomposition.size(); }
};

/// Reusable per-engine scratch for arena-backed restorations. After the
/// first few restorations size every member to its high-water mark, a warm
/// scratch makes source_rbpc_restore_into perform zero heap allocations
/// (the property bench/micro_perf gates on).
struct RestoreScratch {
  spf::SpfWorkspace workspace;
  spf::ShortestPathTree tree;
  graph::PathArena arena;
  DecompositionRef decomposition;
  /// Handle to the backup route inside `arena`; empty when the last
  /// restoration found the pair disconnected.
  graph::PathRef backup;

  bool restored() const { return !backup.empty(); }
  std::size_t pc_length() const { return decomposition.size(); }

  /// Converts the last restoration to the owning form.
  Restoration materialize(const graph::Graph& g) const;
};

/// Source-router RBPC: compute the canonical shortest s->t route in the
/// failed network and cover it greedily with surviving base paths.
/// `base` must be defined over the unfailed network. The route and its
/// pieces live in scratch.arena (cleared on entry) and the SPF runs through
/// scratch.workspace into scratch.tree, so a warm scratch allocates nothing.
void source_rbpc_restore_into(BasePathSet& base, graph::NodeId s,
                              graph::NodeId t, const graph::FailureMask& mask,
                              RestoreScratch& scratch);

/// Owning form of source_rbpc_restore_into: runs it on the calling thread's
/// scratch and returns RestoreScratch::materialize().
Restoration source_rbpc_restore(BasePathSet& base, graph::NodeId s,
                                graph::NodeId t,
                                const graph::FailureMask& mask);

/// End-route local RBPC (Figure 8): the router adjacent to the failure,
/// R1 = lsp_path.node(fail_index), keeps the original route up to R1 and
/// continues along the shortest surviving route from R1 to the destination.
/// `fail_index` identifies the failed link as lsp_path.edge(fail_index).
/// Empty when the destination became unreachable from R1.
graph::Path end_route_path(const graph::Graph& g, spf::Metric metric,
                           const graph::Path& lsp_path, std::size_t fail_index,
                           const graph::FailureMask& mask);

/// Edge-bypass local RBPC (Figure 9): original route up to R1, then the
/// min-cost bypass around the failed link, then the original route resumes.
/// The result can be non-simple (the bypass may revisit earlier routers) —
/// that is faithful to the scheme, which splices labels without global
/// knowledge. Empty when the link cannot be bypassed.
graph::Path edge_bypass_path(const graph::Graph& g, spf::Metric metric,
                             const graph::Path& lsp_path,
                             std::size_t fail_index,
                             const graph::FailureMask& mask);

}  // namespace rbpc::core
