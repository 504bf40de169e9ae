// Unit tests for core/decompose: greedy and overlay decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "graph/graph.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "spf/tree_cache.hpp"
#include "topo/gadgets.hpp"
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

TEST(Decomposition, CountsAndJoin) {
  const Graph g = topo::make_chain(4);
  Decomposition d;
  d.pieces = {Path::from_nodes(g, {0, 1, 2}), Path::from_nodes(g, {2, 3})};
  d.is_base = {true, false};
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.base_count(), 1u);
  EXPECT_EQ(d.edge_count(), 1u);
  EXPECT_EQ(d.joined(), Path::from_nodes(g, {0, 1, 2, 3}));
}

TEST(GreedyDecompose, ShortestPathIsOnePiece) {
  const Graph g = topo::make_ring(8);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  AllPairsShortestBaseSet set(oracle);
  const Path p = spf::shortest_path(g, 0, 3, FailureMask::none(),
                                    spf::SpfOptions{.metric = spf::Metric::Hops});
  const Decomposition d = greedy_decompose(set, p);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.is_base[0]);
  EXPECT_EQ(d.joined(), p);
}

TEST(GreedyDecompose, RingDetourSplitsInTwo) {
  // 8-ring: fail edge (0,1); the new shortest 0->1 route is the 7-hop arc,
  // which is NOT a shortest path in G, but splits into two shortest arcs
  // (<= 4 hops each).
  const Graph g = topo::make_ring(8);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  AllPairsShortestBaseSet set(oracle);
  const Path backup = spf::shortest_path(
      g, 0, 1, FailureMask::of_edges({0}),
      spf::SpfOptions{.metric = spf::Metric::Hops});
  ASSERT_EQ(backup.hops(), 7u);
  const Decomposition d = greedy_decompose(set, backup);
  EXPECT_EQ(d.size(), 2u);  // Theorem 1: k=1 -> at most 2
  EXPECT_EQ(d.base_count(), 2u);
  EXPECT_EQ(d.joined(), backup);
}

TEST(GreedyDecompose, TrivialRoute) {
  const Graph g = topo::make_ring(4);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  AllPairsShortestBaseSet set(oracle);
  const Decomposition d = greedy_decompose(set, Path::trivial(2));
  EXPECT_TRUE(d.empty());
  EXPECT_THROW(greedy_decompose(set, Path{}), PreconditionError);
}

TEST(GreedyDecompose, LooseEdgeFallback) {
  // Weighted chain gadget: the epsilon edges are in no shortest path, so
  // greedy must emit them as non-base connectors.
  const auto gadget = topo::make_weighted_chain(2);
  spf::DistanceOracle oracle(gadget.g, FailureMask{}, spf::Metric::Weighted);
  AllPairsShortestBaseSet set(oracle);
  const Path backup = spf::shortest_path(
      gadget.g, gadget.s, gadget.t,
      FailureMask::of_edges(gadget.cheap_parallel_edges));
  const Decomposition d = greedy_decompose(set, backup);
  EXPECT_EQ(d.edge_count(), 2u);  // the two epsilon edges
  EXPECT_EQ(d.base_count(), 3u);  // the three cheap segments
  EXPECT_EQ(d.joined(), backup);
}

TEST(GreedyDecompose, CanonicalSetStillCovers) {
  Rng rng(31);
  const Graph g = topo::make_random_connected(30, 70, rng, 6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet set(oracle);
  // Restoration route must be padded-canonical for maximal decomposability.
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const graph::EdgeId fail =
        static_cast<graph::EdgeId>(rng.below(g.num_edges()));
    const Path backup =
        spf::shortest_path(g, s, t, FailureMask::of_edges({fail}),
                           spf::SpfOptions{.padded = true});
    if (backup.empty()) continue;
    const Decomposition d = greedy_decompose(set, backup);
    EXPECT_EQ(d.joined(), backup);
    EXPECT_GE(d.size(), 1u);
  }
}

TEST(GreedyDecompose, GreedyIsOptimalForSubpathClosedSets) {
  // The greedy's specification, checked independently of its code on all
  // five base sets (each subpath-closed): the pieces join to the route,
  // each piece is the longest member prefix of what is left (or one loose
  // edge when not even the first hop is a member), and the piece count is
  // the minimum a brute-force dynamic program over all cut points finds.
  // The arena form must produce the same pieces.
  Rng rng(37);
  const Graph weighted = topo::make_random_connected(16, 32, rng, 4);
  const Graph grid = topo::make_grid(4, 5);
  for (const Graph* gp : {&weighted, &grid}) {
    const Graph& g = *gp;
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

    for (int trial = 0; trial < 40; ++trial) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (s == t) continue;
      // One or two failed links: longer detours, more pieces to place.
      FailureMask mask;
      for (const auto e : rng.sample_distinct(g.num_edges(), 1 + trial % 2)) {
        mask.fail_edge(static_cast<graph::EdgeId>(e));
      }
      const Path backup = spf::shortest_path(
          g, s, t, mask, spf::SpfOptions{.metric = metric, .padded = true});
      if (backup.empty() || backup.hops() == 0) continue;
      for (BasePathSet* set : sets) {
        // best[j]: fewest pieces covering nodes [0, j] of the route.
        const std::size_t n = backup.num_nodes();
        std::vector<std::size_t> best(n, SIZE_MAX);
        best[0] = 0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            // Single edges are always admissible; longer pieces when members.
            if (j == i + 1 || set->contains(backup.subpath(i, j))) {
              best[j] = std::min(best[j], best[i] + 1);
            }
          }
        }
        const std::string ctx =
            std::string(set->name()) + " " + backup.to_string();
        const Decomposition d = greedy_decompose(*set, backup);
        EXPECT_EQ(d.size(), best[n - 1]) << ctx;
        EXPECT_EQ(d.joined(), backup) << ctx;
        // Each piece is the longest member prefix of the rest of the route:
        // a base piece is a member that stops growing where membership
        // ends; a loose piece is one edge that is not itself a member.
        std::size_t from = 0;
        for (std::size_t i = 0; i < d.size(); ++i) {
          const std::size_t to = from + d.pieces[i].hops();
          const std::string at = ctx + " piece " + std::to_string(i);
          if (d.is_base[i]) {
            EXPECT_TRUE(set->contains(d.pieces[i])) << at;
            if (to + 1 < n) {
              EXPECT_FALSE(set->contains(backup.subpath(from, to + 1))) << at;
            }
          } else {
            EXPECT_EQ(d.pieces[i].hops(), 1u) << at;
            EXPECT_FALSE(set->contains(d.pieces[i])) << at;
          }
          from = to;
        }
        graph::PathArena arena;
        DecompositionRef ref;
        greedy_decompose_into(*set, arena, arena.store(backup), ref);
        EXPECT_EQ(ref.materialize(g, arena), d) << ctx;
      }
    }
  }
}

// --- overlay ------------------------------------------------------------------------

TEST(OverlayDecompose, FindsMinCostConcatenation) {
  const Graph g = topo::make_ring(8);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet set(oracle);
  const FailureMask mask = FailureMask::of_edges({0});  // (0,1) down
  const Decomposition d = overlay_decompose(set, mask, 0, 1);
  ASSERT_FALSE(d.empty());
  const Path joined = d.joined();
  EXPECT_EQ(joined.source(), 0u);
  EXPECT_EQ(joined.target(), 1u);
  EXPECT_EQ(joined.hops(), 7u);  // the surviving arc
  EXPECT_TRUE(joined.alive(g, mask));
  EXPECT_LE(d.size(), 3u);  // Theorem 2 with k=1: 2 paths + 1 edge
}

TEST(OverlayDecompose, UnreachableGivesEmpty) {
  const Graph g = topo::make_chain(3);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet set(oracle);
  const Decomposition d =
      overlay_decompose(set, FailureMask::of_edges({1}), 0, 2);
  EXPECT_TRUE(d.empty());
}

TEST(OverlayDecompose, MatchesDirectShortestPathCost) {
  Rng rng(41);
  const Graph g = topo::make_random_connected(24, 60, rng, 5);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet set(oracle);
  for (int trial = 0; trial < 15; ++trial) {
    const graph::EdgeId fail =
        static_cast<graph::EdgeId>(rng.below(g.num_edges()));
    const FailureMask mask = FailureMask::of_edges({fail});
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const graph::Weight direct = spf::distance(g, s, t, mask);
    const Decomposition d = overlay_decompose(set, mask, s, t);
    if (direct == graph::kUnreachable) {
      EXPECT_TRUE(d.empty());
      continue;
    }
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.joined().cost(g), direct);
    EXPECT_TRUE(d.joined().alive(g, mask));
  }
}

TEST(OverlayDecompose, RejectsFailedEndpoints) {
  const Graph g = topo::make_ring(4);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet set(oracle);
  EXPECT_THROW(overlay_decompose(set, FailureMask::of_nodes({0}), 0, 2),
               PreconditionError);
}

TEST(OverlayDecompose, PiecesAreFlaggedCorrectly) {
  const auto gadget = topo::make_weighted_chain(1);
  spf::DistanceOracle oracle(gadget.g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet set(oracle);
  FailureMask mask = FailureMask::of_edges(gadget.cheap_parallel_edges);
  const Decomposition d = overlay_decompose(set, mask, gadget.s, gadget.t);
  ASSERT_FALSE(d.empty());
  // The epsilon edge must appear as a non-base connector.
  EXPECT_GE(d.edge_count(), 1u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.is_base[i]) {
      EXPECT_TRUE(set.contains(d.pieces[i]));
    }
  }
}

}  // namespace
}  // namespace rbpc::core
