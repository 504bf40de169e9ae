// Incremental shortest-path-tree repair (Ramalingam–Reps style, specialized
// to failure deltas).
//
// The restoration hot path recomputes post-failure trees: after k link/node
// failures, every affected source needs shortest_tree(g, s, mask). A
// failure of k elements typically invalidates only the subtrees hanging
// below the failed tree edges — exactly the locality that the improved
// restoration lemmas (Bodwin–Wang, arXiv:2309.07964) and restorable
// tiebreaking (Bodwin–Parter, arXiv:2102.10174) formalize. repair_tree
// takes the pre-failure tree, identifies that orphaned region, and
// re-relaxes only its nodes through a local heap; everything outside the
// region is kept verbatim. When the region exceeds a configurable fraction
// of the graph the repair abandons locality and falls back to from-scratch
// Dijkstra (the fallback changes performance, never results).
//
// Bit-identical guarantee. The repaired tree equals shortest_tree(g, s,
// mask, options) exactly — same key, parent, parent edge and node word
// (subtree arcs and unique bit, spf/tree.hpp) per node — not merely a tree
// of equal cost. The node words are patched where the failure changed
// them: the region, its intact neighbours and the ancestors of its old and
// new attachment points. The argument (DESIGN.md §7):
//
//  * From-scratch Dijkstra settles nodes in increasing (key, node) order
//    (strictly positive weights; the heap compares (key, node) pairs), and
//    assigns v the parent (u, e) minimizing (key(u), u, e) among arcs that
//    achieve v's final key — the first relaxation that reaches the final
//    key wins, later equal ones never overwrite (strict improvement), and
//    adjacency lists are sorted by (target, edge).
//  * Removing edges never decreases a key, so a node whose tree path
//    survives keeps its dist AND its parent: any competing achiever would
//    already have been the achiever before the failure.
//  * Inside the orphaned region the repair re-runs Dijkstra seeded with
//    every offer from the surviving boundary, and breaks equal-key parent
//    ties by the same (key(u), u, e) rule — the pre-failure tree stores
//    each node's heap key (ShortestPathTree::key) precisely so boundary
//    offers order identically to a from-scratch run.
//
// Restrictions: undirected graphs and heap-based flavors only (weighted or
// padded runs; the plain-BFS hop flavor breaks ties by queue order, which
// has no local characterization). Unsupported configurations silently fall
// back to the from-scratch kernel, so callers need no capability checks.
//
// A single failed link needs no repaired tree at all when only one route
// is wanted: spf/replacement.hpp reads it off two unfailed trees. The
// restoration service tries that first for k = 1 and repairs only when the
// cut scan cannot prove the route unique, or when k >= 2.
#pragma once

#include <cstddef>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"
#include "spf/workspace.hpp"

namespace rbpc::spf {

struct IncrementalOptions {
  /// Fall back to from-scratch Dijkstra once the orphaned region exceeds
  /// this fraction of the graph's nodes: past that point re-relaxing the
  /// region costs as much as a full run, without the full run's perfectly
  /// linear memory walk. Set to 1.0 to always repair, 0.0 to always fall
  /// back (useful for differential testing either side of the threshold).
  double max_affected_fraction = 0.25;
};

/// How repair_tree produced its result.
enum class RepairKind {
  kIdentity,  ///< no tree edge failed: the pre-failure tree was copied
  kRepaired,  ///< orphaned region re-relaxed locally
  kScratch,   ///< fell back to from-scratch shortest_tree
};

struct RepairReport {
  RepairKind kind = RepairKind::kScratch;
  /// Nodes whose labels were invalidated (0 unless kind == kRepaired).
  std::size_t orphaned = 0;
};

/// Repairs `base` — the full tree shortest_tree(g, base.source(),
/// base_mask, options) for some base_mask whose failures are a subset of
/// `mask` (typically the unfailed network) — into the tree under `mask`.
/// Returns a tree bit-identical to shortest_tree(g, base.source(), mask,
/// options). Throws PreconditionError when the source is failed under
/// `mask` (mirroring shortest_tree), when options.stop_at is set (repair
/// is defined for full trees only), or when `options` disagrees with the
/// flavor recorded in `base`.
ShortestPathTree repair_tree(const graph::Graph& g,
                             const ShortestPathTree& base,
                             const graph::FailureMask& mask,
                             SpfOptions options, SpfWorkspace& workspace,
                             IncrementalOptions incremental = {},
                             RepairReport* report = nullptr);

/// In-place variant of repair_tree: writes the repaired tree into `out`,
/// reusing its array capacity (copy-assignment from `base` reuses storage,
/// so a warm `out` makes the repair allocation-free). `out` must not alias
/// `base`. Identical output to repair_tree.
void repair_tree_into(const graph::Graph& g, const ShortestPathTree& base,
                      const graph::FailureMask& mask, SpfOptions options,
                      SpfWorkspace& workspace, ShortestPathTree& out,
                      IncrementalOptions incremental = {},
                      RepairReport* report = nullptr);

}  // namespace rbpc::spf
