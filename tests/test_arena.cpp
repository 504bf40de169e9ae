// Arena-backed hot path: PathArena unit behavior and, corpus-wide, the
// bit-identical equivalence of the allocation-free engines against their
// legacy counterparts — restoration, greedy decomposition, bulk SPF
// and bounded point distances. Standalone binary so CI can run it under
// TSan and ASan directly (the arena growth/reuse/rewind paths are exactly
// where lifetime bugs would hide).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "core/restoration.hpp"
#include "core/scenario.hpp"
#include "corpus.hpp"
#include "graph/failure.hpp"
#include "graph/path_arena.hpp"
#include "obs/metrics.hpp"
#include "spf/bulk.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "spf/workspace.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rbpc {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Path;
using graph::PathArena;
using graph::PathRef;
using graph::PathView;

Graph square() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 0, 1);
  return b.build();
}

std::int64_t oracle_trees_gauge() {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& g : snap.gauges) {
    if (g.name == "rbpc.mem.oracle_trees") return g.value;
  }
  return 0;
}

// --- PathArena unit behavior ------------------------------------------------

TEST(PathArena, StoreViewRoundTrip) {
  const Graph g = square();
  const Path p = Path::from_nodes(g, {0, 1, 2});
  PathArena arena;
  const PathRef r = arena.store(p);
  EXPECT_EQ(r.num_nodes(), 3u);
  EXPECT_EQ(r.hops(), 2u);
  const PathView v = arena.view(r);
  EXPECT_EQ(v.num_nodes(), 3u);
  EXPECT_EQ(v.node(0), 0u);
  EXPECT_EQ(v.node(2), 2u);
  EXPECT_EQ(arena.to_path(g, r), p);
}

TEST(PathArena, TrivialAndEmpty) {
  PathArena arena;
  const PathRef t = arena.trivial(7);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.hops(), 0u);
  const PathRef empty{};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.hops(), 0u);
  static_assert(std::is_trivially_copyable_v<PathRef>);
}

TEST(PathArena, SubrefIsOffsetMath) {
  const Graph g = square();
  PathArena arena;
  const PathRef r = arena.from_nodes(g, std::vector<NodeId>{0, 1, 2, 3});
  const PathRef mid = arena.subref(r, 1, 2);
  EXPECT_EQ(mid.num_nodes(), 2u);
  const PathView v = arena.view(mid);
  EXPECT_EQ(v.node(0), 1u);
  EXPECT_EQ(v.node(1), 2u);
  // No storage consumed by subref: same arena size before/after.
  const std::size_t size = arena.size();
  (void)arena.subref(r, 0, 3);
  EXPECT_EQ(arena.size(), size);
}

TEST(PathArena, CommitReversedMatchesForwardBuild) {
  const Graph g = square();
  PathArena arena;
  // Forward: 0 -e0-> 1 -e1-> 2. Reversed build writes 2, e1, 1, e0, 0.
  arena.start();
  arena.add_node(2);
  arena.add_edge(1);
  arena.add_node(1);
  arena.add_edge(0);
  arena.add_node(0);
  const PathRef r = arena.commit_reversed();
  EXPECT_EQ(arena.to_path(g, r), Path::from_nodes(g, {0, 1, 2}));
}

TEST(PathArena, ClearReusesCapacityAndGrowthSurvives) {
  const Graph g = square();
  PathArena arena;
  for (int round = 0; round < 3; ++round) {
    arena.clear();
    EXPECT_EQ(arena.size(), 0u);
    std::vector<PathRef> refs;
    for (int i = 0; i < 64; ++i) {
      refs.push_back(arena.from_nodes(g, std::vector<NodeId>{0, 1, 2, 3}));
    }
    // All handles stay valid until the next clear().
    for (const PathRef& r : refs) {
      EXPECT_EQ(arena.view(r).node(3), 3u);
    }
  }
  EXPECT_GT(arena.capacity_bytes(), 0u);
}

TEST(PathArena, MarkRewindDropsProbes) {
  const Graph g = square();
  PathArena arena;
  const PathRef keep = arena.from_nodes(g, std::vector<NodeId>{0, 1});
  const PathArena::Mark m = arena.mark();
  (void)arena.from_nodes(g, std::vector<NodeId>{1, 2, 3});
  (void)arena.from_nodes(g, std::vector<NodeId>{3, 0});
  arena.rewind(m);
  EXPECT_EQ(arena.size(), 2u);  // only `keep` remains
  EXPECT_EQ(arena.view(keep).node(1), 1u);
  EXPECT_THROW(arena.rewind(PathArena::Mark{999}), PreconditionError);
}

TEST(PathArena, AbandonDiscardsOpenPath) {
  PathArena arena;
  arena.start();
  arena.add_node(0);
  arena.add_edge(0);
  arena.add_node(1);
  arena.abandon();
  EXPECT_EQ(arena.size(), 0u);
}

// --- Corpus-wide differentials ----------------------------------------------

/// Sampled (s, t, failed-link) scenarios per topology: every LSP link of a
/// few sampled pairs, exactly the paper's single-failure methodology.
struct RestoreCase {
  NodeId s;
  NodeId t;
  FailureMask mask;
};

std::vector<RestoreCase> restore_cases(spf::DistanceOracle& oracle,
                                       std::uint64_t seed) {
  std::vector<RestoreCase> out;
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    Rng sample_rng = rng.fork();
    const core::SamplePair pair = core::sample_pair(oracle, sample_rng);
    for (const auto& sc :
         core::scenarios_for(pair, core::FailureClass::OneLink, sample_rng)) {
      out.push_back(RestoreCase{pair.src, pair.dst, sc.mask});
    }
  }
  return out;
}

TEST(ArenaDifferential, RestorationBitIdenticalAcrossCorpus) {
  for (const auto& tc : testing::corpus()) {
    const spf::Metric metric =
        tc.g.is_unit_weight() ? spf::Metric::Hops : spf::Metric::Weighted;
    spf::DistanceOracle oracle(tc.g, FailureMask{}, metric);
    core::AllPairsShortestBaseSet base(oracle);
    core::RestoreScratch scratch;
    for (const RestoreCase& c : restore_cases(oracle, 71)) {
      const core::Restoration legacy =
          core::source_rbpc_restore(base, c.s, c.t, c.mask);
      core::source_rbpc_restore_into(base, c.s, c.t, c.mask, scratch);
      const core::Restoration arena = scratch.materialize(tc.g);
      ASSERT_EQ(legacy.restored(), arena.restored()) << tc.name;
      ASSERT_EQ(legacy.backup, arena.backup) << tc.name;
      ASSERT_EQ(legacy.decomposition, arena.decomposition) << tc.name;
      ASSERT_EQ(legacy.pc_length(), scratch.pc_length()) << tc.name;
    }
  }
}

TEST(ArenaDifferential, GreedyDecomposeIdenticalForCanonicalSet) {
  // Both forms run one greedy loop, so this pins only that the two shells
  // turn its ranges into the same pieces on the corpus; the independent
  // reference for the loop itself is
  // GreedyDecompose.GreedyIsOptimalForSubpathClosedSets.
  for (const auto& tc : testing::corpus()) {
    const spf::Metric metric =
        tc.g.is_unit_weight() ? spf::Metric::Hops : spf::Metric::Weighted;
    spf::DistanceOracle oracle(tc.g, FailureMask{}, metric);
    core::CanonicalBaseSet base(oracle);
    PathArena arena;
    core::DecompositionRef out;
    Rng rng(37);
    for (int i = 0; i < 4; ++i) {
      Rng sample_rng = rng.fork();
      const core::SamplePair pair = core::sample_pair(oracle, sample_rng);
      if (pair.lsp.hops() < 2) continue;
      FailureMask mask;
      mask.fail_edge(pair.lsp.edge(0));
      const Path backup =
          spf::shortest_path(tc.g, pair.src, pair.dst, mask,
                             spf::SpfOptions{.metric = metric, .padded = true});
      if (backup.empty()) continue;
      const core::Decomposition legacy = core::greedy_decompose(base, backup);
      arena.clear();
      core::greedy_decompose_into(base, arena, arena.store(backup), out);
      ASSERT_EQ(legacy, out.materialize(tc.g, arena)) << tc.name;
    }
  }
}

TEST(ArenaDifferential, BulkTreesMatchSerial) {
  ThreadPool pool(3);
  for (const auto& tc : testing::corpus()) {
    const spf::Metric metric =
        tc.g.is_unit_weight() ? spf::Metric::Hops : spf::Metric::Weighted;
    const spf::SpfOptions options{.metric = metric, .padded = true};
    std::vector<NodeId> sources;
    for (NodeId s = 0; s < tc.g.num_nodes(); s += 3) sources.push_back(s);
    const std::vector<spf::ShortestPathTree> bulk = spf::build_trees(
        tc.g, sources, FailureMask::none(), options, pool);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const spf::ShortestPathTree serial =
          spf::shortest_tree(tc.g, sources[i], FailureMask::none(), options);
      ASSERT_EQ(bulk[i].source(), serial.source()) << tc.name;
      for (NodeId v = 0; v < tc.g.num_nodes(); ++v) {
        ASSERT_EQ(bulk[i].dist(v), serial.dist(v)) << tc.name;
        ASSERT_EQ(bulk[i].parent(v), serial.parent(v)) << tc.name;
        ASSERT_EQ(bulk[i].parent_edge(v), serial.parent_edge(v)) << tc.name;
        ASSERT_EQ(bulk[i].key(v), serial.key(v)) << tc.name;
      }
    }
  }
}

TEST(ArenaDifferential, BoundedDistanceMatchesDijkstra) {
  // spf::bounded_distance is the library's one bidirectional search; every
  // input shape it must agree with one-sided Dijkstra on: the corpus under
  // zero, one and three link failures, pairs a failure disconnects, and the
  // hop metric on a grid.
  spf::SpfWorkspace fwd;
  spf::SpfWorkspace bwd;
  const auto expect_matches = [&](const Graph& g, NodeId s, NodeId t,
                                  const FailureMask& mask,
                                  spf::SpfOptions options,
                                  const std::string& context) {
    ASSERT_EQ(spf::bounded_distance(g, s, t, mask, options, fwd, bwd),
              spf::distance(g, s, t, mask, options))
        << context << " " << s << "->" << t;
  };
  for (const auto& tc : testing::corpus()) {
    const spf::Metric metric =
        tc.g.is_unit_weight() ? spf::Metric::Hops : spf::Metric::Weighted;
    const spf::SpfOptions options{.metric = metric};
    Rng rng(97);
    for (int i = 0; i < 24; ++i) {
      const NodeId s = static_cast<NodeId>(rng.below(tc.g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(tc.g.num_nodes()));
      FailureMask mask;
      const std::size_t failures =
          i % 3 == 0 ? 0 : std::min<std::size_t>(i % 3 == 1 ? 1 : 3,
                                                 tc.g.num_edges());
      for (const auto e : rng.sample_distinct(tc.g.num_edges(), failures)) {
        mask.fail_edge(static_cast<EdgeId>(e));
      }
      expect_matches(tc.g, s, t, mask, options, tc.name);
    }
  }

  // Disconnected pairs: a failed bridge splits a chain, so both searches
  // run dry and report kUnreachable.
  const Graph chain = topo::make_chain(6);
  const FailureMask cut = FailureMask::of_edges({2});
  ASSERT_EQ(spf::bounded_distance(chain, 0, 5, cut, {}, fwd, bwd),
            graph::kUnreachable);
  for (NodeId s = 0; s < chain.num_nodes(); ++s) {
    for (NodeId t = 0; t < chain.num_nodes(); ++t) {
      expect_matches(chain, s, t, cut, {}, "chain6 cut");
    }
  }

  // Hop metric on a weighted grid: corner to corner is 3 + 4 hops.
  GraphBuilder b(20);
  for (NodeId r = 0; r < 4; ++r) {
    for (NodeId c = 0; c < 5; ++c) {
      const NodeId v = r * 5 + c;
      if (c + 1 < 5) b.add_edge(v, v + 1, 1 + (v % 3));
      if (r + 1 < 4) b.add_edge(v, v + 5, 2 + (v % 2));
    }
  }
  const Graph grid = b.build();
  const spf::SpfOptions hops{.metric = spf::Metric::Hops};
  ASSERT_EQ(spf::bounded_distance(grid, 0, 19, FailureMask{}, hops, fwd, bwd),
            7);
  for (NodeId s = 0; s < grid.num_nodes(); ++s) {
    for (NodeId t = 0; t < grid.num_nodes(); ++t) {
      expect_matches(grid, s, t, FailureMask{}, hops, "grid4x5 hops");
      expect_matches(grid, s, t, FailureMask{}, {}, "grid4x5 weighted");
    }
  }

  // Rejected inputs: directed graphs and out-of-range endpoints.
  GraphBuilder directed(3, /*directed=*/true);
  directed.add_edge(0, 1);
  directed.add_edge(1, 2);
  const Graph dg = directed.build();
  EXPECT_THROW(spf::bounded_distance(dg, 0, 2, FailureMask{}, {}, fwd, bwd),
               PreconditionError);
  EXPECT_THROW(spf::bounded_distance(chain, 0, 9, FailureMask{}, {}, fwd, bwd),
               PreconditionError);
  EXPECT_THROW(spf::bounded_distance(chain, 9, 0, FailureMask{}, {}, fwd, bwd),
               PreconditionError);
}

// --- Oracle memory bounds ---------------------------------------------------

TEST(OracleMemory, ByteCapEvictsAndGaugeTracks) {
  Rng rng(5);
  const Graph g = topo::make_waxman(60, 0.4, 0.35, rng);
  const std::int64_t gauge_before = oracle_trees_gauge();
  {
    spf::DistanceOracle unbounded(g, FailureMask{}, spf::Metric::Weighted);
    const std::size_t per_tree = [&] {
      spf::DistanceOracle probe(g, FailureMask{}, spf::Metric::Weighted);
      (void)probe.tree(0);
      return probe.cached_bytes();
    }();
    ASSERT_GT(per_tree, 0u);

    // Byte cap for ~3 trees; insertions past that evict LRU-first.
    spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted,
                               /*max_cached_trees=*/0,
                               /*max_cached_bytes=*/3 * per_tree);
    for (NodeId s = 0; s < 10; ++s) (void)oracle.tree(s);
    EXPECT_LE(oracle.cached_bytes(), 3 * per_tree);
    EXPECT_LE(oracle.cached_trees(), 3u);
    EXPECT_GE(oracle.cached_trees(), 1u);  // newest is always kept
    // Answers stay correct after eviction.
    for (NodeId s = 0; s < 10; ++s) {
      EXPECT_EQ(oracle.dist(s, 0), spf::distance(g, s, 0));
    }
    // The gauge carries every live oracle's cached bytes.
    EXPECT_EQ(oracle_trees_gauge() - gauge_before,
              static_cast<std::int64_t>(unbounded.cached_bytes() +
                                        oracle.cached_bytes()));
  }
  // Destruction returns the gauge to its prior level.
  EXPECT_EQ(oracle_trees_gauge(), gauge_before);
}

TEST(OracleMemory, BoundedPointQueriesAnswerWithoutCaching) {
  Rng rng(6);
  const Graph g = topo::make_waxman(50, 0.4, 0.35, rng);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  oracle.set_bounded_point_queries(true);
  Rng pairs(7);
  for (int i = 0; i < 24; ++i) {
    const NodeId s = static_cast<NodeId>(pairs.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(pairs.below(g.num_nodes()));
    EXPECT_EQ(oracle.dist(s, t), spf::distance(g, s, t));
  }
  EXPECT_EQ(oracle.cached_trees(), 0u);  // point queries cached nothing
}

}  // namespace
}  // namespace rbpc
