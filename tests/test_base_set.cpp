// Unit tests for core/base_set: membership semantics of the base sets.
#include <gtest/gtest.h>

#include <functional>

#include "core/base_set.hpp"
#include "corpus.hpp"
#include "graph/graph.hpp"
#include "graph/path_arena.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "spf/tree_cache.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::core {
namespace {

using graph::FailureMask;
using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Path;

/// The set's base path u -> v as an owning Path (empty when the set has
/// none), read through an arena.
Path base_path(BasePathSet& set, NodeId u, NodeId v) {
  graph::PathArena arena;
  const graph::PathRef ref = set.base_path_ref(u, v, arena);
  return ref.empty() ? Path{} : arena.to_path(set.graph(), ref);
}

// Diamond with a tie: 0-1 (1), 1-3 (2), 0-2 (4), 2-3 (1), 1-2 (1).
Graph diamond() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 4);
  b.add_edge(1, 3, 2);
  b.add_edge(2, 3, 1);
  b.add_edge(1, 2, 1);
  return b.build();
}

TEST(AllPairsSet, AcceptsEveryShortestPath) {
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  AllPairsShortestBaseSet set(oracle);
  EXPECT_TRUE(set.contains(Path::from_nodes(g, {0, 1, 3})));
  EXPECT_TRUE(set.contains(Path::from_nodes(g, {0, 1, 2, 3})));
  EXPECT_FALSE(set.contains(Path::from_nodes(g, {0, 2, 3})));
  EXPECT_STREQ(set.name(), "all-pairs-shortest");
}

TEST(AllPairsSet, BasePathIsAShortestPath) {
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  AllPairsShortestBaseSet set(oracle);
  const Path p = base_path(set, 0, 3);
  EXPECT_TRUE(set.contains(p));
  EXPECT_EQ(base_path(set, 2, 2).hops(), 0u);
}

TEST(CanonicalSet, AcceptsExactlyOnePerPair) {
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet set(oracle);
  const Path a = Path::from_nodes(g, {0, 1, 3});
  const Path b = Path::from_nodes(g, {0, 1, 2, 3});
  EXPECT_NE(set.contains(a), set.contains(b));
  // The member is exactly the base path 0 -> 3.
  const Path canon = base_path(set, 0, 3);
  EXPECT_TRUE(set.contains(canon));
}

TEST(CanonicalSet, TrivialMembership) {
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet set(oracle);
  EXPECT_TRUE(set.contains(Path::trivial(1)));
  EXPECT_TRUE(set.contains(Path{}));
}

TEST(ExpandedSet, AcceptsCanonicalPlusEdgeExtensions) {
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  ExpandedBaseSet set(oracle);
  CanonicalBaseSet canon_set(oracle);

  // Everything canonical is in the expanded set.
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u == v) continue;
      EXPECT_TRUE(set.contains(base_path(canon_set, u, v)));
    }
  }
  // The non-shortest edge (0,2) alone: canonical-trivial + edge => member.
  EXPECT_TRUE(set.contains(Path::from_nodes(g, {0, 2})));
  // Canonical(0->?) + trailing edge extensions are members.
  const Path canon03 = base_path(canon_set, 0, 3);
  // Extend by edge (3,2) when the canonical path doesn't end 2-3.
  if (!canon03.visits_node(2)) {
    Path extended = canon03;
    extended.extend(g, 3, 2);  // edge 3 is (2,3)
    EXPECT_TRUE(set.contains(extended));
  }
}

TEST(ExpandedSet, RejectsDoublyExtendedPaths) {
  // 0-2 (non-shortest edge) followed by 2-0-1... a path that is neither
  // canonical nor canonical+one edge must be rejected: 0 -> 2 -> 3 costs 5
  // (canonical 0->3 costs 3) and is not a one-edge extension of any
  // canonical path unless one of its ends strips to a canonical path.
  const Graph g = diamond();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  ExpandedBaseSet set(oracle);
  const Path p = Path::from_nodes(g, {0, 2, 3});
  // Strip front: {2,3} is canonical (it is the unique shortest 2-3 path),
  // so 0-2-3 IS an edge extension. Use a genuinely double-extended path:
  const Path q = Path::from_nodes(g, {2, 0, 1});
  // {0,1} is canonical, so edge+canonical again qualifies. Build a path
  // whose both strips are non-canonical: 3 -> 2 -> 0 -> 1? strip front:
  // {2,0,1}: 2->1 canonical is the direct edge (cost 1), so 2-0-1 (cost 5)
  // is not canonical. strip back: {3,2,0} vs canonical 3->0 (cost 3 via
  // 1): not canonical. So 3-2-0-1 must be rejected.
  const Path r = Path::from_nodes(g, {3, 2, 0, 1});
  EXPECT_TRUE(set.contains(p));
  EXPECT_TRUE(set.contains(q));
  EXPECT_FALSE(set.contains(r));
}

TEST(BaseSets, RejectOracleWithFailures) {
  const Graph g = diamond();
  spf::DistanceOracle failed_oracle(g, FailureMask::of_edges({0}),
                                    spf::Metric::Weighted);
  EXPECT_THROW(AllPairsShortestBaseSet{failed_oracle}, PreconditionError);
  EXPECT_THROW(CanonicalBaseSet{failed_oracle}, PreconditionError);
  EXPECT_THROW(ExpandedBaseSet{failed_oracle}, PreconditionError);
}

TEST(BaseSets, CanonicalIsSubsetOfAllPairs) {
  Rng rng(23);
  const Graph g = topo::make_random_connected(25, 60, rng, 7);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  AllPairsShortestBaseSet all(oracle);
  CanonicalBaseSet canon(oracle);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      const Path p = base_path(canon, u, v);
      if (p.empty()) continue;
      EXPECT_TRUE(all.contains(p)) << p.to_string();
      EXPECT_TRUE(canon.contains(p));
    }
  }
}

TEST(ExpandedSet, SizeBoundedByCorollary4Formula) {
  // Corollary 4 bounds the (directed) expanded base set by
  // n(n-1) + 2m(n-1) paths. Enumerate every simple path of a small graph
  // and count the members.
  Rng rng(27);
  const Graph g = topo::make_random_connected(6, 9, rng, 4);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  ExpandedBaseSet set(oracle);

  std::size_t members = 0;
  // DFS enumeration of all simple paths (6 nodes -> tiny).
  std::vector<NodeId> stack;
  std::vector<bool> used(g.num_nodes(), false);
  std::function<void(NodeId)> dfs = [&](NodeId v) {
    stack.push_back(v);
    used[v] = true;
    if (stack.size() >= 2) {
      if (set.contains(Path::from_nodes(g, stack))) ++members;
    }
    for (const graph::Arc& a : g.arcs(v)) {
      if (!used[a.to]) dfs(a.to);
    }
    used[v] = false;
    stack.pop_back();
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) dfs(v);

  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  EXPECT_LE(members, n * (n - 1) + 2 * m * (n - 1));
  // And it is at least the canonical set (one per ordered connected pair).
  EXPECT_GE(members, n * (n - 1) / 2);
}

TEST(BaseSets, HopMetricMembership) {
  // Unweighted: every edge is a shortest path, hence a base path.
  const Graph g = topo::make_ring(6, 1);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  AllPairsShortestBaseSet set(oracle);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    EXPECT_TRUE(set.contains(Path::from_parts(g, {ed.u, ed.v}, {e})));
  }
  // But going 5 hops around a 6-ring is not shortest (the other way is 1).
  EXPECT_FALSE(set.contains(Path::from_nodes(g, {0, 1, 2, 3, 4, 5})));
}

TEST(BaseSets, EveryPrefixOfAMemberIsAMember) {
  // Greedy decomposition searches prefix lengths (longest_prefix: a binary
  // search, or a forward walk down one tree for the canonical sets), which
  // is sound only when membership of a route's prefixes is monotone. Check
  // it on every set over the corpus: take members — base paths, one-failure
  // backup routes, base paths extended by one edge — and require each
  // prefix of each of them to be a member too. Then require longest_prefix
  // to agree, from every position of every candidate, with a linear scan
  // of contains().
  std::size_t checked = 0;
  std::size_t probed = 0;
  for (const auto& tc : testing::corpus()) {
    const Graph& g = tc.g;
    const spf::Metric metric =
        g.is_unit_weight() ? spf::Metric::Hops : spf::Metric::Weighted;
    spf::DistanceOracle oracle(g, FailureMask{}, metric);
    spf::TreeCache trees(g, FailureMask{},
                         spf::SpfOptions{.metric = metric, .padded = true});
    AllPairsShortestBaseSet all_pairs(oracle);
    CanonicalBaseSet canonical(oracle);
    SharedCanonicalBaseSet shared(trees);
    ExpandedBaseSet expanded(oracle);
    FaultTolerantBaseSet fault_tolerant(oracle);
    BasePathSet* const sets[] = {&all_pairs, &canonical, &shared, &expanded,
                                 &fault_tolerant};

    Rng rng(41);
    std::vector<Path> candidates;
    for (int i = 0; i < 6; ++i) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      const Path lsp = oracle.canonical_path(s, t);
      if (s == t || lsp.hops() == 0) continue;
      candidates.push_back(lsp);
      const FailureMask mask =
          FailureMask::of_edges({lsp.edge(rng.below(lsp.hops()))});
      const Path backup = spf::shortest_path(
          g, s, t, mask, spf::SpfOptions{.metric = metric, .padded = true});
      if (!backup.empty()) candidates.push_back(backup);
      for (const graph::Arc& a : g.arcs(t)) {
        if (lsp.visits_node(a.to)) continue;
        Path extended = lsp;
        extended.extend(g, a.edge, a.to);
        candidates.push_back(extended);
        break;
      }
    }
    for (BasePathSet* set : sets) {
      for (const Path& p : candidates) {
        if (!set->contains(p)) continue;
        for (std::size_t j = 1; j < p.num_nodes(); ++j) {
          ASSERT_TRUE(set->contains(p.subpath(0, j)))
              << tc.name << " " << set->name() << ": prefix " << j << " of "
              << p.to_string();
          ++checked;
        }
      }
      for (const Path& p : candidates) {
        for (std::size_t pos = 0; pos + 1 < p.num_nodes(); ++pos) {
          std::size_t want = pos;
          for (std::size_t j = pos + 1; j < p.num_nodes(); ++j) {
            if (set->contains(p.view().subview(pos, j))) want = j;
          }
          ASSERT_EQ(set->longest_prefix(p.view(), pos), want)
              << tc.name << " " << set->name() << ": from " << pos << " of "
              << p.to_string();
          ++probed;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(probed, 1000u);
}

}  // namespace
}  // namespace rbpc::core
