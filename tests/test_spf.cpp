// Unit tests for src/spf: the layered hop kernel and heap Dijkstra,
// padding, counting, oracle, bypass.
#include <gtest/gtest.h>

#include "corpus.hpp"

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path_arena.hpp"
#include "spf/bypass.hpp"
#include "spf/counting.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::spf {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Path;
using graph::Weight;

// A weighted diamond: 0-1 (1), 0-2 (4), 1-3 (2), 2-3 (1), 1-2 (1).
Graph diamond() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 4);
  b.add_edge(1, 3, 2);
  b.add_edge(2, 3, 1);
  b.add_edge(1, 2, 1);
  return b.build();
}

TEST(Spf, WeightedDistances) {
  const Graph g = diamond();
  const auto tree = shortest_tree(g, 0);
  EXPECT_EQ(tree.dist(0), 0);
  EXPECT_EQ(tree.dist(1), 1);
  EXPECT_EQ(tree.dist(2), 2);  // via 1
  EXPECT_EQ(tree.dist(3), 3);  // 0-1-3 or 0-1-2-3
}

TEST(Spf, HopDistancesUseBfs) {
  const Graph g = diamond();
  const auto tree = shortest_tree(g, 0, FailureMask::none(),
                                  SpfOptions{.metric = Metric::Hops});
  EXPECT_EQ(tree.dist(3), 2);
  EXPECT_EQ(tree.hops(3), 2u);
  EXPECT_EQ(tree.metric(), Metric::Hops);
}

TEST(Spf, PathReconstruction) {
  const Graph g = diamond();
  const auto tree = shortest_tree(g, 0);
  const Path p = tree.path_to(g, 3);
  EXPECT_EQ(p.source(), 0u);
  EXPECT_EQ(p.target(), 3u);
  EXPECT_EQ(p.cost(g), 3);
  EXPECT_TRUE(p.simple());
}

TEST(Spf, UnreachableAfterFailure) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  const auto tree =
      shortest_tree(g, 0, FailureMask::of_edges({1}), SpfOptions{});
  EXPECT_TRUE(tree.reachable(1));
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_EQ(tree.dist(2), graph::kUnreachable);
  EXPECT_THROW(tree.path_to(g, 2), PreconditionError);
}

TEST(Spf, FailedSourceRejected) {
  const Graph g = diamond();
  EXPECT_THROW(
      shortest_tree(g, 0, FailureMask::of_nodes({0}), SpfOptions{}),
      PreconditionError);
}

TEST(Spf, NodeFailureReroutesAroundIt) {
  const Graph g = diamond();
  const Path p = shortest_path(g, 0, 3, FailureMask::of_nodes({1}));
  EXPECT_EQ(p.nodes(), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(p.cost(g), 5);
}

TEST(Spf, SinglePairAndDistanceHelpers) {
  const Graph g = diamond();
  EXPECT_EQ(distance(g, 0, 3), 3);
  // Strict-improvement relaxation settles 3 via the direct (1,3) edge.
  EXPECT_EQ(shortest_path(g, 0, 3).hops(), 2u);
  EXPECT_TRUE(shortest_path(g, 0, 0).hops() == 0u);
}

TEST(Spf, DisconnectedPairGivesEmptyPath) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_TRUE(shortest_path(g, 0, 3).empty());
  EXPECT_EQ(distance(g, 0, 3), graph::kUnreachable);
}

TEST(Spf, ParallelEdgesUseCheapest) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 5);
  const EdgeId cheap = b.add_edge(0, 1, 2);
  const Graph g = b.build();
  const Path p = shortest_path(g, 0, 1);
  EXPECT_EQ(p.edge(0), cheap);
  EXPECT_EQ(p.cost(g), 2);
}

TEST(Spf, DirectedGraphRespectsOrientation) {
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 0, 1);
  const Graph g = b.build();
  EXPECT_EQ(distance(g, 0, 2), 2);
  EXPECT_EQ(distance(g, 2, 1), 2);  // must go 2->0->1
}

// --- padding / canonical paths ---------------------------------------------------

TEST(Padding, SaltsAreStableAndInRange) {
  for (EdgeId e = 0; e < 1000; ++e) {
    const Weight s = padding_salt(e);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, kMaxSalt);
    EXPECT_EQ(s, padding_salt(e));  // deterministic
  }
}

TEST(Padding, PaddedTreePreservesTrueDistances) {
  Rng rng(5);
  const Graph g = topo::make_random_connected(40, 90, rng, 10);
  const auto plain = shortest_tree(g, 0);
  const auto padded = shortest_tree(g, 0, FailureMask::none(),
                                    SpfOptions{.padded = true});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(plain.dist(v), padded.dist(v)) << "node " << v;
  }
}

TEST(Padding, CanonicalPathsAreSubpathConsistent) {
  // Subpaths of padded-unique shortest paths are themselves the canonical
  // paths of their endpoints (Theorem 3's base-set property).
  Rng rng(7);
  const Graph g = topo::make_random_connected(30, 60, rng, 5);
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  for (NodeId s = 0; s < 10; ++s) {
    const Path p = oracle.canonical_path(s, 29);
    if (p.empty()) continue;
    for (std::size_t i = 0; i < p.num_nodes(); ++i) {
      for (std::size_t j = i + 1; j < p.num_nodes(); ++j) {
        const Path sub = p.subpath(i, j);
        EXPECT_EQ(sub, oracle.canonical_path(sub.source(), sub.target()))
            << "subpath " << sub.to_string();
      }
    }
  }
}

TEST(Padding, CanonicalPathDeterministicAcrossRuns) {
  Rng rng(9);
  const Graph g = topo::make_random_connected(25, 50, rng, 3);
  DistanceOracle o1(g, FailureMask{}, Metric::Weighted);
  DistanceOracle o2(g, FailureMask{}, Metric::Weighted);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_EQ(o1.canonical_path(0, v), o2.canonical_path(0, v));
  }
}

TEST(Padding, SaltsArePinnedPerPolicy) {
  // Every stored padded tree, cache key and golden result depends on these
  // exact values; a change to any salt scheme must show up here.
  const EdgeId ids[16] = {0, 1, 2, 3, 7, 8, 15, 16, 100, 255, 1000, 16382,
                          16383, 65535, 1000000, 4000000000u};
  const Weight arbitrary[16] = {7731, 3012, 5746, 16214, 15444, 4553,
                                16165, 2767, 4726, 5129, 5413, 14044,
                                6391, 5977, 2783, 15653};
  const Weight lexicographic[16] = {1, 2, 3, 4, 8, 9, 16, 17, 101, 256,
                                    1001, 16383, 1, 4, 638, 8636};
  const Weight restorable[16] = {8193, 8199, 8194, 8198, 8196, 8193,
                                 8195, 8200, 8193, 8194, 8193, 8200,
                                 8196, 8200, 8197, 8198};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(padding_salt(ids[i], TiebreakPolicy::Arbitrary), arbitrary[i])
        << "edge " << ids[i];
    EXPECT_EQ(padding_salt(ids[i], TiebreakPolicy::Lexicographic),
              lexicographic[i])
        << "edge " << ids[i];
    EXPECT_EQ(padding_salt(ids[i], TiebreakPolicy::Restorable), restorable[i])
        << "edge " << ids[i];
  }
}

// --- the layered hop kernel ------------------------------------------------------
//
// Hop runs are built one hop layer at a time (no heap); weighted runs keep
// the heap kernel. On a unit-weight copy of a graph a padded weighted run
// prices every arc kPadScale + salt, exactly as a padded hop run does, so
// the heap kernel there is the reference for every field of the tree.

constexpr TiebreakPolicy kPolicies[] = {TiebreakPolicy::Arbitrary,
                                        TiebreakPolicy::Lexicographic,
                                        TiebreakPolicy::Restorable};

Graph unit_weight_copy(const Graph& g) {
  GraphBuilder b(g.num_nodes(), g.directed());
  for (const graph::Edge& e : g.edges()) b.add_edge(e.u, e.v, 1);
  return b.build();
}

// Node-by-node field comparison; reports the first differing node only.
void expect_same_nodes(const ShortestPathTree& got,
                       const ShortestPathTree& want, const std::string& what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    if (got.key(v) == want.key(v) && got.parent(v) == want.parent(v) &&
        got.parent_edge(v) == want.parent_edge(v) &&
        got.unique(v) == want.unique(v) &&
        got.subtree_arcs(v) == want.subtree_arcs(v)) {
      continue;
    }
    ADD_FAILURE() << what << ": node " << v << " key " << got.key(v) << "/"
                  << want.key(v) << " parent " << got.parent(v) << "/"
                  << want.parent(v) << " edge " << got.parent_edge(v) << "/"
                  << want.parent_edge(v) << " unique " << got.unique(v) << "/"
                  << want.unique(v) << " arcs " << got.subtree_arcs(v) << "/"
                  << want.subtree_arcs(v);
    return;
  }
}

struct HopCase {
  std::string name;
  Graph g;
};

// The shared corpus, an ISP and an AS sample, and a directed mesh.
std::vector<HopCase> hop_cases() {
  std::vector<HopCase> out;
  for (testing::TopoCase& c : testing::corpus()) {
    out.push_back({c.name, std::move(c.g)});
  }
  Rng rng(77);
  out.push_back({"isp", topo::make_isp_like(rng, true)});
  out.push_back({"as", topo::make_as_like(rng, 0.5)});
  GraphBuilder directed(30, /*directed=*/true);
  for (int i = 0; i < 90; ++i) {
    const auto u = static_cast<NodeId>(rng.below(30));
    const auto v = static_cast<NodeId>(rng.below(30));
    if (u != v) directed.add_edge(u, v);
  }
  out.push_back({"directed30", directed.build()});
  return out;
}

// Empty, one to three failed links, and a failed router other than `s`.
std::vector<FailureMask> hop_masks(const Graph& g, NodeId s, Rng& rng) {
  std::vector<FailureMask> out(1);
  for (std::size_t k = 1; k <= 3 && k <= g.num_edges(); ++k) {
    FailureMask m;
    while (m.failed_edge_count() < k) {
      m.fail_edge(static_cast<EdgeId>(rng.below(g.num_edges())));
    }
    out.push_back(std::move(m));
  }
  const auto router = static_cast<NodeId>(rng.below(g.num_nodes()));
  if (router != s) out.push_back(FailureMask::of_nodes({router}));
  return out;
}

std::vector<NodeId> hop_sources(const Graph& g) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  return {0, n / 2, n - 1};
}

TEST(HopKernel, PaddedMatchesHeapKernelOnUnitWeights) {
  Rng rng(2026);
  for (const HopCase& c : hop_cases()) {
    const Graph unit = unit_weight_copy(c.g);
    for (const NodeId s : hop_sources(c.g)) {
      for (const FailureMask& mask : hop_masks(c.g, s, rng)) {
        for (const TiebreakPolicy policy : kPolicies) {
          const auto layered = shortest_tree(
              c.g, s, mask,
              SpfOptions{.metric = Metric::Hops, .padded = true,
                         .tiebreak = policy});
          const auto heap = shortest_tree(
              unit, s, mask,
              SpfOptions{.metric = Metric::Weighted, .padded = true,
                         .tiebreak = policy});
          EXPECT_EQ(layered.tiebreak(), policy);
          expect_same_nodes(layered, heap,
                            c.name + " s=" + std::to_string(s) + " failed=" +
                                std::to_string(mask.failed_edge_count()) +
                                "+" + std::to_string(mask.failed_node_count()) +
                                " " + to_string(policy));
        }
      }
    }
  }
}

// Textbook BFS: the first discoverer in queue order is the parent; the
// queue in reverse sums the subtree arcs.
ShortestPathTree reference_bfs(const Graph& g, NodeId s,
                               const FailureMask& mask) {
  ShortestPathTree t(s, g.num_nodes(), Metric::Hops, /*padded=*/false);
  t.settle(s, 0, graph::kInvalidNode, graph::kInvalidEdge);
  std::vector<NodeId> queue{s};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const graph::Arc& a : g.arcs(queue[i])) {
      if (!mask.edge_alive(g, a.edge) || t.reachable(a.to)) continue;
      t.settle(a.to, t.key(queue[i]) + 1, queue[i], a.edge);
      queue.push_back(a.to);
    }
  }
  t.sum_subtree_arcs(g, queue);
  return t;
}

TEST(HopKernel, PlainMatchesReferenceBfs) {
  Rng rng(2027);
  for (const HopCase& c : hop_cases()) {
    for (const NodeId s : hop_sources(c.g)) {
      for (const FailureMask& mask : hop_masks(c.g, s, rng)) {
        expect_same_nodes(
            shortest_tree(c.g, s, mask, SpfOptions{.metric = Metric::Hops}),
            reference_bfs(c.g, s, mask), c.name + " s=" + std::to_string(s));
      }
    }
  }
}

TEST(HopKernel, StopAtTargetEntriesMatchFullRun) {
  Rng rng(2028);
  for (const HopCase& c : hop_cases()) {
    const NodeId s = 0;
    for (const FailureMask& mask : hop_masks(c.g, s, rng)) {
      for (const bool padded : {false, true}) {
        for (const TiebreakPolicy policy : kPolicies) {
          const SpfOptions full{.metric = Metric::Hops, .padded = padded,
                                .tiebreak = policy};
          const auto whole = shortest_tree(c.g, s, mask, full);
          for (int trial = 0; trial < 4; ++trial) {
            const auto t = static_cast<NodeId>(rng.below(c.g.num_nodes()));
            SpfOptions early = full;
            early.stop_at = t;
            const auto part = shortest_tree(c.g, s, mask, early);
            const std::string what = c.name + " t=" + std::to_string(t);
            EXPECT_EQ(part.key(t), whole.key(t)) << what;
            EXPECT_EQ(part.parent(t), whole.parent(t)) << what;
            EXPECT_EQ(part.parent_edge(t), whole.parent_edge(t)) << what;
            EXPECT_EQ(part.unique(t), whole.unique(t)) << what;
            if (whole.reachable(t)) {
              EXPECT_EQ(part.path_to(c.g, t), whole.path_to(c.g, t)) << what;
            }
          }
        }
      }
    }
  }
}

// Parents of a padded hop tree built layer by layer, but keeping the first
// achiever in layer order on equal keys instead of the one a heap settles
// first — the tie rule the kernel must not use.
std::vector<NodeId> first_in_layer_parents(const Graph& g, NodeId s,
                                           TiebreakPolicy policy) {
  std::vector<Weight> key(g.num_nodes(), graph::kUnreachable);
  std::vector<NodeId> parent(g.num_nodes(), graph::kInvalidNode);
  std::vector<NodeId> order{s};
  key[s] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const graph::Arc& a : g.arcs(order[i])) {
      const Weight alt = key[order[i]] + kPadScale + padding_salt(a.edge, policy);
      if (alt >= key[a.to]) continue;
      if (key[a.to] == graph::kUnreachable) order.push_back(a.to);
      key[a.to] = alt;
      parent[a.to] = order[i];
    }
  }
  return parent;
}

TEST(HopKernel, KeepingTheFirstAchieverOnTiesDiffersUnderRestorable) {
  // Restorable salts take one of 8 values, so equal padded keys reached
  // from different parents are common. The differential above would catch
  // a kernel that kept the first achiever in layer order: such a kernel
  // disagrees with the heap kernel on these inputs.
  std::size_t differing = 0;
  for (const HopCase& c : hop_cases()) {
    const auto tree = shortest_tree(
        c.g, 0, FailureMask::none(),
        SpfOptions{.metric = Metric::Hops, .padded = true,
                   .tiebreak = TiebreakPolicy::Restorable});
    const std::vector<NodeId> mutant =
        first_in_layer_parents(c.g, 0, TiebreakPolicy::Restorable);
    for (NodeId v = 0; v < c.g.num_nodes(); ++v) {
      if (mutant[v] != tree.parent(v)) ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

// --- counting ----------------------------------------------------------------------

TEST(Counting, GridHasBinomialPathCounts) {
  // On an n x n unit grid the number of shortest corner-to-corner paths is
  // C(2(n-1), n-1).
  const Graph g = topo::make_grid(3, 3);
  const auto counts = count_shortest_paths(g, 0, FailureMask::none(),
                                           Metric::Hops);
  EXPECT_EQ(counts[8], 6u);  // C(4,2)
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[2], 1u);  // straight line along the row
}

TEST(Counting, ParallelEdgesCountSeparately) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 1, 1);
  const Graph g = b.build();
  EXPECT_EQ(count_shortest_paths_pair(g, 0, 1), 2u);
}

TEST(Counting, RespectsFailures) {
  const Graph g = topo::make_grid(2, 2);
  EXPECT_EQ(count_shortest_paths_pair(g, 0, 3, FailureMask::none(),
                                      Metric::Hops),
            2u);
  EXPECT_EQ(count_shortest_paths_pair(g, 0, 3, FailureMask::of_edges({0}),
                                      Metric::Hops),
            1u);
}

TEST(Counting, UnreachableIsZero) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(count_shortest_paths_pair(g, 0, 2), 0u);
}

TEST(Counting, WeightedTiesCounted) {
  const Graph g = diamond();
  // 0->3: 0-1-3 (1+2=3) and 0-1-2-3 (1+1+1=3).
  EXPECT_EQ(count_shortest_paths_pair(g, 0, 3), 2u);
}

// --- oracle -------------------------------------------------------------------------

TEST(Oracle, DistMatchesDirectDijkstra) {
  Rng rng(11);
  const Graph g = topo::make_random_connected(30, 70, rng, 8);
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(oracle.dist(u, v), distance(g, u, v));
    }
  }
}

TEST(Oracle, IsShortestAcceptsAnyShortestPath) {
  const Graph g = diamond();
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  const Path a = Path::from_nodes(g, {0, 1, 3});
  const Path b = Path::from_nodes(g, {0, 1, 2, 3});
  EXPECT_TRUE(oracle.is_shortest(a));
  EXPECT_TRUE(oracle.is_shortest(b));
  const Path c = Path::from_nodes(g, {0, 2, 3});
  EXPECT_FALSE(oracle.is_shortest(c));  // cost 5 > 3
}

TEST(Oracle, IsCanonicalAcceptsExactlyOne) {
  const Graph g = diamond();
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  const Path a = Path::from_nodes(g, {0, 1, 3});
  const Path b = Path::from_nodes(g, {0, 1, 2, 3});
  EXPECT_NE(oracle.is_canonical(a), oracle.is_canonical(b));
}

TEST(Oracle, TrivialSegmentsAreMembers) {
  const Graph g = diamond();
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  EXPECT_TRUE(oracle.is_shortest(Path{}));
  EXPECT_TRUE(oracle.is_shortest(Path::trivial(2)));
  EXPECT_TRUE(oracle.is_canonical(Path::trivial(2)));
}

TEST(Oracle, HonorsItsFailureMask) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(0, 2, 5);
  const Graph g = b.build();
  DistanceOracle oracle(g, FailureMask::of_edges({0}), Metric::Weighted);
  EXPECT_EQ(oracle.dist(0, 2), 5);
  graph::PathArena arena;
  EXPECT_EQ(oracle.some_shortest_path_ref(0, 2, arena).hops(), 1u);
}

TEST(Oracle, CacheEvictionKeepsAnswersCorrect) {
  Rng rng(13);
  const Graph g = topo::make_random_connected(20, 40, rng, 4);
  DistanceOracle bounded(g, FailureMask{}, Metric::Weighted,
                         /*max_cached_trees=*/2);
  DistanceOracle unbounded(g, FailureMask{}, Metric::Weighted);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(bounded.dist(u, v), unbounded.dist(u, v));
    }
  }
  EXPECT_GT(bounded.spf_runs(), 0u);
}

TEST(Oracle, SymmetricLookupAvoidsExtraSpf) {
  const Graph g = diamond();
  DistanceOracle oracle(g, FailureMask{}, Metric::Weighted);
  (void)oracle.dist(0, 3);
  const std::size_t runs = oracle.spf_runs();
  // Undirected: dist(3, 0) can be served from the cached tree at 0.
  (void)oracle.dist(3, 0);
  EXPECT_EQ(oracle.spf_runs(), runs);
}

// --- bypass -------------------------------------------------------------------------

TEST(Bypass, TriangleEdgeHasTwoHopBypass) {
  GraphBuilder b(3);
  const EdgeId e01 = b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 0, 1);
  const Graph g = b.build();
  const Path byp = min_cost_bypass(g, e01);
  EXPECT_EQ(byp.hops(), 2u);
  EXPECT_EQ(byp.source(), 0u);
  EXPECT_EQ(byp.target(), 1u);
  EXPECT_FALSE(byp.uses_edge(e01));
}

TEST(Bypass, BridgeHasNoBypass) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const EdgeId bridge = b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_TRUE(min_cost_bypass(g, bridge).empty());
}

TEST(Bypass, ParallelTwinGivesOneHopBypass) {
  GraphBuilder b(2);
  const EdgeId a = b.add_edge(0, 1, 1);
  const EdgeId twin = b.add_edge(0, 1, 3);
  const Graph g = b.build();
  const Path byp = min_cost_bypass(g, a);
  EXPECT_EQ(byp.hops(), 1u);
  EXPECT_EQ(byp.edge(0), twin);
}

TEST(Bypass, RespectsExistingMask) {
  // Square 0-1-2-3-0: bypassing (0,1) normally takes 0-3-2-1; with (2,3)
  // also failed there is no bypass.
  const Graph g = topo::make_ring(4);
  const Path byp = min_cost_bypass(g, 0);
  EXPECT_EQ(byp.hops(), 3u);
  EXPECT_TRUE(min_cost_bypass(g, 0, FailureMask::of_edges({2})).empty());
}

}  // namespace
}  // namespace rbpc::spf
