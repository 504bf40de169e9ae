// Base path sets — the statically provisioned LSP families that RBPC
// concatenates restoration paths from (paper Sections 3-4).
//
// Three concrete sets, matching the paper's three design points:
//
//  * AllPairsShortestBaseSet — every shortest path between every pair is a
//    base path. Membership is a metric test ("does the segment's cost equal
//    the endpoint distance"), which needs no explicit path storage and so
//    scales to the 40k-node Internet topology. This is the set used in the
//    paper's main experiments (Section 5), and it is subpath-closed, which
//    makes greedy longest-prefix decomposition optimal.
//
//  * CanonicalBaseSet — exactly one shortest path per ordered pair, chosen
//    by deterministic padding (Theorem 3's infinitesimally padded weights).
//    Under padding, shortest paths are (generically) unique, so this set is
//    also subpath-closed, but it is n(n-1) paths rather than all ties.
//
//    SharedCanonicalBaseSet is the same set read from a thread-safe
//    spf::TreeCache of padded unfailed trees instead of an oracle, so one
//    tree store serves both SPF repair and membership.
//
//  * ExpandedBaseSet — Corollary 4: the canonical set plus, for every edge,
//    the canonical paths extended by that edge at either end. Removes the
//    need for Theorem 2's k loose edges at the cost of a ~(1 + 2m/n) times
//    larger set.
//
//  * FaultTolerantBaseSet — the improved-lemma set of Bodwin–Wang
//    (arXiv 2309.07964): every path that is shortest in G *or* in G - e for
//    some single edge e. Provisioning 1-fault-tolerant base paths buys
//    strictly more reusable subpaths after multi-failures, which is what
//    tightens the k-failure concatenation bounds.
//
// All sets answer membership against the *unfailed* network: a base LSP is
// usable for restoration iff its path survives, and subpaths of a post-
// failure shortest path survive by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/path_arena.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "spf/tree_cache.hpp"

namespace rbpc::core {

/// A family of base paths over the unfailed network.
///
/// Every set must be subpath-closed: each subpath of a member is a member.
/// Greedy decomposition relies on it twice: longest_prefix() may search
/// for the longest member prefix (by binary search, or by a forward walk)
/// only because membership of a route's prefixes is monotone, and the
/// greedy cover is optimal only for such sets. All five sets below satisfy
/// it: subpaths of shortest paths are shortest (all-pairs), Theorem 3
/// (padded canonical paths, both canonical sets), Corollary 4 (their
/// one-edge extensions) and Bodwin–Wang (the fault-tolerant set).
class BasePathSet {
 public:
  virtual ~BasePathSet() = default;

  const graph::Graph& graph() const { return graph_; }
  spf::Metric metric() const { return metric_; }

  /// Is `segment` (a concrete path in the graph) a member base path?
  /// Trivial (<= 1 node) segments are members by convention. The PathView
  /// form is the primitive — membership is read-only, so the hot path
  /// probes arena-backed views without materializing a Path.
  virtual bool contains(graph::PathView segment) = 0;
  bool contains(const graph::Path& segment) {
    return contains(segment.view());
  }

  /// The end index of the longest member prefix of `route` from node
  /// `pos` (route.subview(pos, end) is a member and no longer prefix is),
  /// or `pos` when not even the first hop is a member. The greedy cover's
  /// one query. The default probes the first hop and then binary-searches
  /// the prefix length with contains(); the canonical sets override it
  /// with one tree lookup and a forward walk, which finds the same end
  /// because membership is monotone. Precondition: pos + 1 <
  /// route.num_nodes().
  virtual std::size_t longest_prefix(graph::PathView route, std::size_t pos);

  /// Stores a base path from u to v into `arena` and returns its handle:
  /// the trivial path when u == v, the empty PathRef when the set has none
  /// (disconnected pair). The one way a set hands out a base path; overlay
  /// decomposition reads its pieces through it.
  virtual graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                                       graph::PathArena& arena) = 0;

  /// True when the set has *some* base path u -> v, i.e. base_path_ref
  /// would return a non-empty handle. O(1) against the oracle's cached tree
  /// at u — lets overlay decomposition skip unreachable targets without
  /// materializing a path.
  virtual bool connected(graph::NodeId u, graph::NodeId v) = 0;

  /// Human-readable name for benches and logs.
  virtual const char* name() const = 0;

 protected:
  BasePathSet(const graph::Graph& g, spf::Metric metric)
      : graph_(g), metric_(metric) {}

 private:
  const graph::Graph& graph_;
  spf::Metric metric_;
};

/// The all-pairs all-shortest-paths base set (metric-oracle membership).
class AllPairsShortestBaseSet final : public BasePathSet {
 public:
  /// `oracle` must be built over the unfailed network and outlive this set.
  explicit AllPairsShortestBaseSet(spf::DistanceOracle& oracle);

  using BasePathSet::contains;
  bool contains(graph::PathView segment) override;
  graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                               graph::PathArena& arena) override;
  bool connected(graph::NodeId u, graph::NodeId v) override;
  const char* name() const override { return "all-pairs-shortest"; }

 private:
  spf::DistanceOracle& oracle_;
};

/// Theorem-3 canonical set: one padded-unique shortest path per ordered pair.
class CanonicalBaseSet final : public BasePathSet {
 public:
  explicit CanonicalBaseSet(spf::DistanceOracle& oracle);

  using BasePathSet::contains;
  bool contains(graph::PathView segment) override;
  std::size_t longest_prefix(graph::PathView route, std::size_t pos) override;
  graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                               graph::PathArena& arena) override;
  bool connected(graph::NodeId u, graph::NodeId v) override;
  const char* name() const override { return "canonical-one-per-pair"; }

 private:
  spf::DistanceOracle& oracle_;
};

/// The Theorem-3 canonical set over a shared spf::TreeCache: the cache's
/// padded unfailed trees are exactly the oracle's padded trees, so every
/// answer matches CanonicalBaseSet's. The cache builds each source once and
/// is thread-safe, and the set keeps no state of its own, so concurrent
/// decompositions need no lock.
class SharedCanonicalBaseSet final : public BasePathSet {
 public:
  /// `trees` must carry no failures, build padded trees, and outlive this
  /// set.
  explicit SharedCanonicalBaseSet(spf::TreeCache& trees);

  using BasePathSet::contains;
  bool contains(graph::PathView segment) override;
  std::size_t longest_prefix(graph::PathView route, std::size_t pos) override;
  graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                               graph::PathArena& arena) override;
  bool connected(graph::NodeId u, graph::NodeId v) override;
  const char* name() const override { return "canonical-one-per-pair"; }

 private:
  spf::TreeCache& trees_;
};

/// Corollary-4 expanded set: canonical paths plus single-edge extensions.
class ExpandedBaseSet final : public BasePathSet {
 public:
  explicit ExpandedBaseSet(spf::DistanceOracle& oracle);

  using BasePathSet::contains;
  bool contains(graph::PathView segment) override;
  graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                               graph::PathArena& arena) override;
  bool connected(graph::NodeId u, graph::NodeId v) override;
  const char* name() const override { return "expanded-corollary4"; }

 private:
  spf::DistanceOracle& oracle_;
};

/// Bodwin–Wang improved-lemma set: paths shortest in G or in G - e for a
/// single edge e (1-fault-tolerant shortest paths). A superset of
/// AllPairsShortestBaseSet, and still subpath-closed: a subpath of a path
/// shortest in G - e is itself shortest in G - e.
///
/// Membership needs distances in punctured graphs; the set keeps an
/// LRU-bounded pool of per-failed-edge oracles. Witness candidates are
/// restricted to edges of the canonical path between the segment's
/// endpoints: if a segment is shortest in G - e but not in G, then e must
/// lie on every strictly shorter path — in particular on the canonical
/// shortest one — so the restriction loses nothing.
class FaultTolerantBaseSet final : public BasePathSet {
 public:
  /// Bound on the punctured-oracle pool (LRU); each pooled oracle itself
  /// caches at most a handful of trees so the worst case stays
  /// proportional to graph size.
  static constexpr std::size_t kMaxFailureOracles = 64;

  explicit FaultTolerantBaseSet(spf::DistanceOracle& oracle);

  using BasePathSet::contains;
  bool contains(graph::PathView segment) override;
  graph::PathRef base_path_ref(graph::NodeId u, graph::NodeId v,
                               graph::PathArena& arena) override;
  bool connected(graph::NodeId u, graph::NodeId v) override;
  const char* name() const override { return "fault-tolerant-bw"; }

  /// Punctured oracles currently pooled (eviction-test observability).
  std::size_t pooled_oracles() const { return failure_oracles_.size(); }

 private:
  spf::DistanceOracle& failure_oracle(graph::EdgeId e);

  struct Slot {
    std::unique_ptr<spf::DistanceOracle> oracle;
    std::uint64_t last_used = 0;
  };

  spf::DistanceOracle& oracle_;
  std::uint64_t use_clock_ = 0;
  std::map<graph::EdgeId, Slot> failure_oracles_;
};

}  // namespace rbpc::core
