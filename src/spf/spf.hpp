// Single-source shortest-path computations (SPF in routing terminology).
//
// One entry point covers both metrics: Hops builds the tree one hop layer
// at a time with no heap (plain runs are BFS; padded runs reproduce the
// heap kernel's first-achiever tiebreak, DESIGN.md §7), Weighted runs 4-ary
// heap Dijkstra. All functions are failure-mask aware and fully
// deterministic: adjacency lists are pre-sorted and parents change on
// strict improvement only (or, in padded layers, toward the achiever a
// heap would settle first), so the resulting tree depends only on (graph,
// mask, options).
#pragma once

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "spf/metric.hpp"
#include "spf/tree.hpp"
#include "spf/workspace.hpp"

namespace rbpc::spf {

struct SpfOptions {
  Metric metric = Metric::Weighted;
  /// Deterministic padding: ties between equal-cost paths are broken by
  /// per-edge salts, yielding the canonical (generically unique) shortest
  /// path per pair — Theorem 3's base-set selection.
  bool padded = false;
  /// Early exit for single-pair queries: only this node's tree entries
  /// (key, parent, parent edge, unique bit) and the tree path to it are
  /// specified. Weighted runs stop when the heap settles it, plain hop runs
  /// when BFS dequeues it, padded hop runs once its hop layer has settled.
  graph::NodeId stop_at = graph::kInvalidNode;
  /// Which of the equal-cost ties padding resolves (see spf/metric.hpp).
  /// Only meaningful when padded; part of the tree flavor, so trees, caches,
  /// and incremental repair never mix policies.
  TiebreakPolicy tiebreak = TiebreakPolicy::Arbitrary;
};

/// Computes the shortest-path tree from `source` over the surviving part of
/// the network. Unreachable nodes (including failed ones) have
/// dist == kUnreachable. Throws PreconditionError if `source` is failed or
/// out of range.
ShortestPathTree shortest_tree(const graph::Graph& g, graph::NodeId source,
                               const graph::FailureMask& mask = graph::FailureMask::none(),
                               SpfOptions options = {});

/// In-place variant through an explicit caller-owned workspace (see
/// spf/workspace.hpp): rebuilds `out` with the tree from `source`, reusing
/// its SoA array capacity. shortest_tree runs this on the calling thread's
/// thread_workspace(); pass a workspace explicitly to control scratch reuse
/// (e.g. a long-lived engine that wants its allocations accounted). Once
/// `workspace` and `out` have been sized for the graph, a run performs zero
/// heap allocations (beyond amortized heap-vector growth inside the
/// workspace, which also reaches a fixed point). Output is bit-identical to
/// shortest_tree — neither the workspace nor the storage strategy ever
/// influences results.
void shortest_tree_into(const graph::Graph& g, graph::NodeId source,
                        const graph::FailureMask& mask, SpfOptions options,
                        SpfWorkspace& workspace, ShortestPathTree& out);

/// Single-pair distance by bidirectional Dijkstra over caller-owned
/// workspaces: expands a ball from each endpoint (always the side with the
/// smaller frontier key) and stops when the frontiers prove no shorter
/// meeting exists. On small-world graphs two balls of radius d/2 touch
/// orders of magnitude fewer nodes than one ball of radius d, which is what
/// makes uncached point queries viable at million-node scale
/// (spf::DistanceOracle's bounded point-query mode). Allocation-free once
/// the workspaces are warm. Undirected, unpadded runs only; returns
/// kUnreachable when disconnected (or an endpoint is failed).
graph::Weight bounded_distance(const graph::Graph& g, graph::NodeId s,
                               graph::NodeId t, const graph::FailureMask& mask,
                               SpfOptions options, SpfWorkspace& fwd,
                               SpfWorkspace& bwd);

/// Single-pair shortest path; the empty Path when t is unreachable from s.
graph::Path shortest_path(const graph::Graph& g, graph::NodeId s,
                          graph::NodeId t,
                          const graph::FailureMask& mask = graph::FailureMask::none(),
                          SpfOptions options = {});

/// Distance only (kUnreachable when disconnected).
graph::Weight distance(const graph::Graph& g, graph::NodeId s, graph::NodeId t,
                       const graph::FailureMask& mask = graph::FailureMask::none(),
                       SpfOptions options = {});

/// Lower bound on the hop-count diameter by iterated double sweep: BFS from
/// a start node, then repeatedly from the farthest node found, for `sweeps`
/// rounds. Exact on trees; in practice within a hop or two of the true
/// diameter on internet-like graphs, at O(sweeps * (n + m)) cost — used to
/// check the small-world property of the Table-1 stand-ins where exact APSP
/// is infeasible. Undirected; ignores failed elements per `mask`.
graph::Weight approx_hop_diameter(
    const graph::Graph& g,
    const graph::FailureMask& mask = graph::FailureMask::none(),
    std::size_t sweeps = 4);

}  // namespace rbpc::spf
