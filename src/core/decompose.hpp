// Decomposition of restoration routes into concatenations of base paths —
// the algorithmic heart of RBPC (paper Section 4.1).
//
// Two algorithms, as in the paper:
//  * greedy_decompose — the paper's greedy: repeatedly take the longest
//    prefix of the remaining route that is a base path
//    (BasePathSet::longest_prefix: a binary search on prefix length, or a
//    forward walk down one tree for the canonical sets, both valid because
//    every BasePathSet is subpath-closed), falling back to a single edge
//    when not even the first hop is a base path (Theorem 2's k loose
//    edges). Covers exactly the given route with the optimal piece count.
//  * overlay_decompose — the paper's fallback for sparse base sets:
//    Dijkstra on the overlay graph whose edges are the *surviving* base
//    paths plus surviving single edges. Returns a minimum-cost (then
//    fewest-piece) concatenation, which may differ from any particular
//    pre-computed route.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/base_set.hpp"
#include "graph/failure.hpp"
#include "graph/path.hpp"
#include "graph/path_arena.hpp"

namespace rbpc::core {

/// A concatenation of path pieces. Piece i is flagged `is_base[i]` when it
/// came from the base set (an existing LSP); otherwise it is a loose edge
/// connector in the sense of Theorem 2.
struct Decomposition {
  std::vector<graph::Path> pieces;
  std::vector<bool> is_base;

  /// Total component count — the paper's "PC length".
  std::size_t size() const { return pieces.size(); }
  std::size_t base_count() const;
  std::size_t edge_count() const { return size() - base_count(); }
  bool empty() const { return pieces.empty(); }

  /// Re-concatenates the pieces into one route.
  graph::Path joined() const;

  /// Structural equality (piece paths and base flags) — what "bit-identical
  /// restoration" means in the service equivalence tests.
  friend bool operator==(const Decomposition& a,
                         const Decomposition& b) = default;
};

/// Arena-backed decomposition: piece handles into a PathArena instead of
/// owning Paths. The hot-path counterpart of Decomposition — clear() keeps
/// the vectors' capacity, so a warm engine reuses one DecompositionRef for
/// every restoration with zero allocation.
struct DecompositionRef {
  std::vector<graph::PathRef> pieces;
  /// 0/1 flags (std::vector<bool> would force bit twiddling on the hot
  /// path; one byte per piece is nothing next to the piece itself).
  std::vector<std::uint8_t> is_base;

  std::size_t size() const { return pieces.size(); }
  std::size_t base_count() const;
  std::size_t edge_count() const { return size() - base_count(); }
  bool empty() const { return pieces.empty(); }
  void clear() {
    pieces.clear();
    is_base.clear();
  }

  /// Converts to the owning representation (the legacy / storage boundary).
  Decomposition materialize(const graph::Graph& g,
                            const graph::PathArena& arena) const;
};

/// Covers `route` exactly by base paths + loose edges. Preconditions:
/// route non-empty; every edge of `route` exists in base.graph().
/// Throws NoRouteError if the route cannot be covered (cannot happen when
/// single edges are admissible pieces, which they always are here).
Decomposition greedy_decompose(BasePathSet& base, const graph::Path& route);

/// Arena form of greedy_decompose: `route` lives in `arena`, the resulting
/// pieces are subrange handles into the same storage (no new slots are
/// consumed — subref is offset math), appended to `out` after clear().
/// Both forms run one greedy loop over a PathView and differ only in how
/// they hold the pieces, so they probe and answer identically.
void greedy_decompose_into(BasePathSet& base, const graph::PathArena& arena,
                           graph::PathRef route, DecompositionRef& out);

/// Minimum-cost restoration concatenation from s to t over surviving base
/// paths and surviving single edges. Returns an empty decomposition when t
/// is unreachable. Cost ties are broken towards fewer pieces, then
/// deterministically. O(n * (n + m)) per call — intended for ISP-scale
/// graphs and the base-set ablation, not the 40k-node topologies. Candidate
/// base paths are probed in a call-local arena (mark/rewind), so the scan
/// allocates nothing per candidate.
Decomposition overlay_decompose(BasePathSet& base,
                                const graph::FailureMask& mask,
                                graph::NodeId s, graph::NodeId t);

}  // namespace rbpc::core
