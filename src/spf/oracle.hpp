// DistanceOracle: cached one-to-all SPF runs against a fixed
// (graph, failure-mask, metric) configuration.
//
// The experiment engine asks many distance / canonical-path / segment-is-
// shortest queries rooted at a modest number of distinct sources; caching
// whole trees makes each additional query O(1) / O(path length) while
// keeping memory proportional to (#distinct sources x n), which is what
// makes the 40k-node Internet topology tractable (DESIGN.md §5.1).
//
// At million-node scale two extra knobs matter (DESIGN.md §11): the cache
// bound becomes byte-based (a tree costs ~20 bytes/node, so "128 trees" is
// meaningless across graph sizes — max_cached_bytes caps the real
// footprint, reported via the rbpc.mem.oracle_trees gauge), and point
// queries at uncached sources can switch to bidirectional search
// (set_bounded_point_queries) instead of paying a full one-to-all run for
// one distance.
#pragma once

#include <memory>
#include <unordered_map>

#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/path_arena.hpp"
#include "spf/metric.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"

namespace rbpc::spf {

class DistanceOracle {
 public:
  /// The oracle copies `mask`, so callers may mutate theirs afterwards.
  /// `max_cached_trees` bounds the number of cached SPF trees per flavor
  /// and `max_cached_bytes` bounds the total tree bytes across both
  /// flavors (0 = unlimited for either; eviction is LRU and triggers when
  /// either bound is exceeded, always keeping the newest tree). On
  /// 40k-node graphs each tree costs ~1 MB, so the experiment engines set
  /// a bound and rely on source locality.
  DistanceOracle(const graph::Graph& g, graph::FailureMask mask, Metric metric,
                 std::size_t max_cached_trees = 0,
                 std::size_t max_cached_bytes = 0,
                 TiebreakPolicy tiebreak = TiebreakPolicy::Arbitrary);
  ~DistanceOracle();

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  const graph::Graph& graph() const { return g_; }
  const graph::FailureMask& mask() const { return mask_; }
  Metric metric() const { return metric_; }
  /// The tiebreak policy of every canonical (padded) query.
  TiebreakPolicy tiebreak() const { return tiebreak_; }

  /// Shortest-path tree rooted at u (plain metric). Cached.
  const ShortestPathTree& tree(graph::NodeId u);
  /// Shortest-path tree rooted at u with canonical padding under the
  /// oracle's tiebreak policy. Cached.
  const ShortestPathTree& padded_tree(graph::NodeId u);

  /// True cost of the shortest u->v route; kUnreachable if disconnected.
  graph::Weight dist(graph::NodeId u, graph::NodeId v);

  bool reachable(graph::NodeId u, graph::NodeId v);

  /// Reachability probe that prefers the padded tree at u, so callers that
  /// otherwise only query canonical paths never force a plain-flavor SPF.
  /// (Reachability itself is flavor-independent.)
  bool canonical_reachable(graph::NodeId u, graph::NodeId v);

  /// Some shortest u->v path (the plain tree's path); empty if unreachable.
  graph::Path some_shortest_path(graph::NodeId u, graph::NodeId v);

  /// The canonical (padded / Theorem-3) shortest u->v path under the
  /// oracle's tiebreak policy; empty if unreachable.
  graph::Path canonical_path(graph::NodeId u, graph::NodeId v);

  /// Arena counterparts: extract the path straight into `arena` (no owning
  /// Path is built); the empty PathRef when unreachable.
  graph::PathRef some_shortest_path_ref(graph::NodeId u, graph::NodeId v,
                                        graph::PathArena& arena);
  graph::PathRef canonical_path_ref(graph::NodeId u, graph::NodeId v,
                                    graph::PathArena& arena);

  /// True when `segment` is *a* shortest path between its endpoints, i.e.
  /// its cost equals the endpoint distance. This is exactly membership in
  /// the paper's all-pairs-shortest-paths base set. Empty segments and
  /// trivial (single-node) segments are shortest by convention.
  bool is_shortest(graph::PathView segment);
  bool is_shortest(const graph::Path& segment) {
    return is_shortest(segment.view());
  }

  /// True when `segment` equals the canonical base path between its
  /// endpoints (membership in the Theorem-3 single-path-per-pair set).
  /// The view overload compares against the padded tree's parent chain in
  /// place — no path is materialized.
  bool is_canonical(graph::PathView segment);
  bool is_canonical(const graph::Path& segment) {
    return is_canonical(segment.view());
  }

  /// When enabled, dist()/reachable()/is_shortest() queries whose source
  /// (and, undirected, target) has no cached tree are answered by
  /// bidirectional search (spf::bounded_distance) instead of a cached
  /// one-to-all run. Nothing is cached for such queries: at million-node
  /// scale a point query touches thousands of nodes, a tree run all of
  /// them. Path and canonical queries still build trees. Undirected
  /// oracles only.
  void set_bounded_point_queries(bool enabled);
  bool bounded_point_queries() const { return bounded_point_; }

  /// Number of SPF runs performed so far (both flavors, including
  /// bidirectional runs); used by the benchmarks to report
  /// work done.
  std::size_t spf_runs() const { return spf_runs_; }

  /// Bytes held by cached trees (all flavors) — what the
  /// rbpc.mem.oracle_trees gauge reports for this oracle.
  std::size_t cached_bytes() const { return cached_bytes_; }
  std::size_t cached_trees() const;

 private:
  /// Tree cache with LRU eviction over count and byte bounds.
  struct Cache {
    struct Slot {
      std::unique_ptr<ShortestPathTree> tree;
      std::uint64_t last_used = 0;
    };
    std::unordered_map<graph::NodeId, Slot> slots;
  };

  const graph::Graph& g_;
  graph::FailureMask mask_;
  Metric metric_;
  std::size_t max_cached_;
  std::size_t max_cached_bytes_;
  TiebreakPolicy tiebreak_;
  std::uint64_t use_clock_ = 0;
  Cache plain_;
  Cache padded_;  ///< padded trees under tiebreak_
  std::size_t spf_runs_ = 0;
  std::size_t cached_bytes_ = 0;
  bool bounded_point_ = false;
  /// Workspaces for bounded point queries (lazily sized by begin()).
  std::unique_ptr<SpfWorkspace> point_fwd_;
  std::unique_ptr<SpfWorkspace> point_bwd_;

  const ShortestPathTree& get(Cache& cache, graph::NodeId u, bool padded);
  const ShortestPathTree* peek(graph::NodeId u) const;
  /// Takes ownership of a freshly built tree for `u`, updating byte
  /// accounting and evicting LRU slots while over either bound.
  const ShortestPathTree& insert(Cache& cache, graph::NodeId u,
                                 std::unique_ptr<ShortestPathTree> tree);
  void evict_over_bounds(Cache& cache);
  void account(std::int64_t delta);
};

}  // namespace rbpc::spf
