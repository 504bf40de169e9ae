// Multi-failure restoration (|F| = k >= 2): the theorem-property harness.
//
// Sweeps the shared corpus under k-edge failure sets and SRLG cuts,
// asserting every restoration is lemma-clean (tests/theorem_props.hpp),
// that the Restorable restoration tiebreak never needs more pieces than
// the Arbitrary baseline, and that the Bodwin–Wang fault-tolerant base set
// never needs more pieces than the all-pairs set it contains. Also the
// home of the SPF tiebreak-policy bit-identity checks (scratch vs cache vs
// repair vs pool vs thread counts), the mixed-policy no-aliasing
// regressions for DistanceOracle / SnapshotTreePool, the SRLG scenario
// tests, and the seeded differential SPF fuzz with shrinking.
//
// Standalone binary: CI runs it under TSan and ASan/UBSan directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/srlg.hpp"
#include "chaos/storm.hpp"
#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "core/multi_failure.hpp"
#include "corpus.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"
#include "spf/tree_cache.hpp"
#include "spf/tree_pool.hpp"
#include "theorem_props.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rbpc {
namespace {

using core::AllPairsShortestBaseSet;
using core::FaultTolerantBaseSet;
using core::MultiFailureRestoration;
using core::RestoreTiebreak;
using core::restore_multi;
using graph::EdgeId;
using graph::FailureMask;
using graph::NodeId;
using spf::Metric;
using spf::SpfOptions;
using spf::TiebreakPolicy;
using rbpc::testing::check_restoration;
using rbpc::testing::corpus;
using rbpc::testing::lemma_bound;
using rbpc::testing::matches_reference;
using rbpc::testing::random_edge_failures;
using rbpc::testing::reference_dijkstra;
using rbpc::testing::theorem1_bound;
using rbpc::testing::TopoCase;
using rbpc::testing::trees_identical;

constexpr std::array<TiebreakPolicy, spf::kNumTiebreakPolicies> kPolicies = {
    TiebreakPolicy::Arbitrary, TiebreakPolicy::Lexicographic,
    TiebreakPolicy::Restorable};

/// Distinct endpoints sampled from the graph's nodes.
std::pair<NodeId, NodeId> random_pair(const graph::Graph& g, Rng& rng) {
  const auto picks = rng.sample_distinct(g.num_nodes(), 2);
  return {static_cast<NodeId>(picks[0]), static_cast<NodeId>(picks[1])};
}

std::size_t failed_edge_count(const FailureMask& mask) {
  return mask.failed_edges().size();
}

/// Runs both restoration tiebreaks for one (base, mask, s, t) instance and
/// checks the full multi-failure property bundle: both lemma-clean, costs
/// equal, Restorable never deeper than Arbitrary, both within the lemma
/// bound for the instance's failure count.
void expect_lemma_clean_pair(core::BasePathSet& base, const FailureMask& mask,
                             NodeId s, NodeId t, const std::string& context) {
  const graph::Graph& g = base.graph();
  const std::size_t k = failed_edge_count(mask);
  const MultiFailureRestoration arb =
      restore_multi(base, mask, s, t, RestoreTiebreak::Arbitrary);
  const MultiFailureRestoration res =
      restore_multi(base, mask, s, t, RestoreTiebreak::Restorable);
  ASSERT_EQ(arb.restored(), res.restored()) << context;
  if (!arb.restored()) {
    // Both tiebreaks refused: the failures must genuinely disconnect.
    EXPECT_EQ(spf::distance(g, s, t, mask, SpfOptions{.metric = base.metric()}),
              graph::kUnreachable)
        << context;
    return;
  }
  EXPECT_TRUE(check_restoration(base, mask, arb.route, arb.decomposition))
      << context << " [arbitrary]";
  EXPECT_TRUE(check_restoration(base, mask, res.route, res.decomposition))
      << context << " [restorable]";
  EXPECT_EQ(arb.cost, res.cost) << context;
  EXPECT_LE(res.stack_depth(), arb.stack_depth())
      << context << ": restorable tiebreak must never need more pieces";
  EXPECT_LE(arb.stack_depth(), lemma_bound(base.metric(), k)) << context;
  EXPECT_LE(res.stack_depth(), lemma_bound(base.metric(), k)) << context;
}

std::string trial_tag(const TopoCase& tc, std::size_t k, std::size_t trial,
                      const FailureMask& mask) {
  std::ostringstream os;
  os << tc.name << " k=" << k << " trial=" << trial << " failed={";
  for (const EdgeId e : mask.failed_edges()) os << e << ",";
  os << "}";
  return os.str();
}

// --- corpus-wide k-failure property sweeps -----------------------------------

TEST(MultiFailure, CorpusSweepUnweighted) {
  for (const TopoCase& tc : corpus()) {
    spf::DistanceOracle oracle(tc.g, FailureMask::none(), Metric::Hops);
    AllPairsShortestBaseSet base(oracle);
    Rng rng(0xF00D0000 ^ std::hash<std::string>{}(tc.name));
    for (const std::size_t k : {2u, 3u, 5u, 8u}) {
      for (std::size_t trial = 0; trial < 2; ++trial) {
        const FailureMask mask = random_edge_failures(tc.g, k, rng);
        const auto [s, t] = random_pair(tc.g, rng);
        expect_lemma_clean_pair(base, mask, s, t,
                                trial_tag(tc, k, trial, mask));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MultiFailure, CorpusSweepWeighted) {
  const auto cases = corpus();
  // Every third topology: the weighted sweep pays Theorem-2 loose-edge
  // probing per trial, and metric coverage does not need all 60 shapes.
  for (std::size_t i = 0; i < cases.size(); i += 3) {
    const TopoCase& tc = cases[i];
    spf::DistanceOracle oracle(tc.g, FailureMask::none(), Metric::Weighted);
    AllPairsShortestBaseSet base(oracle);
    Rng rng(0xBEEF0000 ^ std::hash<std::string>{}(tc.name));
    for (const std::size_t k : {2u, 4u, 8u}) {
      for (std::size_t trial = 0; trial < 2; ++trial) {
        const FailureMask mask = random_edge_failures(tc.g, k, rng);
        const auto [s, t] = random_pair(tc.g, rng);
        expect_lemma_clean_pair(base, mask, s, t,
                                trial_tag(tc, k, trial, mask));
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The punctured-oracle pool is LRU-bounded: membership tests that puncture
// more than kMaxFailureOracles distinct links keep at most that many.
TEST(MultiFailure, FaultTolerantOraclePoolStaysBounded) {
  // On a 12 x 12 unit grid, the straight run along row r is the only
  // shortest path between its ends. A detour two rows down costs 15; with
  // any one row link removed the distance is 13, so no link is a witness
  // and every one of the row's 11 links gets a punctured oracle.
  constexpr std::size_t kSide = 12;
  const graph::Graph g = topo::make_grid(kSide, kSide);
  const auto id = [](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * kSide + c);
  };
  spf::DistanceOracle oracle(g, FailureMask::none(), Metric::Weighted);
  FaultTolerantBaseSet ft(oracle);
  std::set<EdgeId> punctured;
  for (std::size_t r = 0; r + 2 < kSide; ++r) {
    std::vector<NodeId> detour = {id(r, 0), id(r + 1, 0)};
    for (std::size_t c = 0; c < kSide; ++c) detour.push_back(id(r + 2, c));
    detour.push_back(id(r + 1, kSide - 1));
    detour.push_back(id(r, kSide - 1));
    EXPECT_FALSE(ft.contains(graph::Path::from_nodes(g, detour))) << "row " << r;
    const graph::Path row = oracle.canonical_path(id(r, 0), id(r, kSide - 1));
    punctured.insert(row.edges().begin(), row.edges().end());
    EXPECT_LE(ft.pooled_oracles(), FaultTolerantBaseSet::kMaxFailureOracles)
        << "row " << r;
  }
  EXPECT_GT(punctured.size(), FaultTolerantBaseSet::kMaxFailureOracles);
  EXPECT_EQ(ft.pooled_oracles(), FaultTolerantBaseSet::kMaxFailureOracles);
}

// The Bodwin–Wang 1-fault-tolerant set contains the all-pairs-shortest set,
// so its overlay restorations can never need more pieces — and its members
// must still verify as lemma-clean against its own membership test.
TEST(MultiFailure, FaultTolerantSetNeverDeeperThanAllPairs) {
  const auto cases = corpus();
  for (std::size_t i = 0; i < 10; ++i) {
    const TopoCase& tc = cases[i];
    spf::DistanceOracle oracle(tc.g, FailureMask::none(), Metric::Weighted);
    AllPairsShortestBaseSet ap(oracle);
    FaultTolerantBaseSet ft(oracle);
    Rng rng(0xFACE ^ std::hash<std::string>{}(tc.name));
    for (const std::size_t k : {2u, 4u}) {
      for (std::size_t trial = 0; trial < 2; ++trial) {
        const FailureMask mask = random_edge_failures(tc.g, k, rng);
        const auto [s, t] = random_pair(tc.g, rng);
        const std::string tag = trial_tag(tc, k, trial, mask);
        const MultiFailureRestoration r_ap =
            restore_multi(ap, mask, s, t, RestoreTiebreak::Restorable);
        const MultiFailureRestoration r_ft =
            restore_multi(ft, mask, s, t, RestoreTiebreak::Restorable);
        ASSERT_EQ(r_ap.restored(), r_ft.restored()) << tag;
        if (!r_ap.restored()) continue;
        EXPECT_TRUE(check_restoration(ft, mask, r_ft.route,
                                      r_ft.decomposition))
            << tag << " [fault-tolerant]";
        EXPECT_EQ(r_ap.cost, r_ft.cost) << tag;
        EXPECT_LE(r_ft.stack_depth(), r_ap.stack_depth())
            << tag << ": the superset base set must never need more pieces";
        if (HasFatalFailure()) return;
      }
    }
    // Superset spot check: every all-pairs member is a fault-tolerant
    // member (a path shortest in G is trivially shortest in G, clause one).
    const graph::Path canon = oracle.canonical_path(0, static_cast<NodeId>(
                                                           tc.g.num_nodes() - 1));
    if (!canon.empty() && ap.contains(canon)) {
      EXPECT_TRUE(ft.contains(canon)) << tc.name;
    }
  }
}

// A 1-fault-tolerant member that is NOT shortest in G: the detour that
// becomes shortest only once the direct edge fails.
TEST(MultiFailure, FaultTolerantMembershipAcceptsReplacementPaths) {
  //   0 --(1)-- 1 --(1)-- 2      detour 0-1-2 costs 2,
  //    \________(1)______/       direct 0-2 costs 1.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  const EdgeId direct = b.add_edge(0, 2, 1);
  const graph::Graph g = b.build();
  spf::DistanceOracle oracle(g, FailureMask::none(), Metric::Weighted);
  AllPairsShortestBaseSet ap(oracle);
  FaultTolerantBaseSet ft(oracle);
  const graph::Path detour = graph::Path::from_parts(g, {0, 1, 2}, {0, 1});
  EXPECT_FALSE(ap.contains(detour)) << "detour costs 2, direct costs 1";
  EXPECT_TRUE(ft.contains(detour))
      << "detour is shortest in G - {direct edge " << direct << "}";

  // Rejection needs edge-disjoint redundancy: with parallel direct twins,
  // no single failure ever makes the expensive detour shortest, so it must
  // stay out of the 1-fault-tolerant set.
  graph::GraphBuilder b2(3);
  b2.add_edge(0, 1, 5);
  b2.add_edge(1, 2, 5);
  b2.add_edge(0, 2, 1);
  b2.add_edge(0, 2, 1);  // the surviving twin under any single failure
  const graph::Graph g2 = b2.build();
  spf::DistanceOracle oracle2(g2, FailureMask::none(), Metric::Weighted);
  AllPairsShortestBaseSet ap2(oracle2);
  FaultTolerantBaseSet ft2(oracle2);
  const graph::Path junk = graph::Path::from_parts(g2, {0, 1, 2}, {0, 1});
  EXPECT_FALSE(ap2.contains(junk));
  EXPECT_FALSE(ft2.contains(junk))
      << "a path shortest in no single-failure puncturing is not a member";
}

// --- SRLG scenarios ----------------------------------------------------------

TEST(Srlg, ParallelSpanDiscovery) {
  const graph::Graph g = rbpc::testing::make_parallel_span_ladder(6);
  const auto groups = chaos::parallel_span_groups(g);
  ASSERT_EQ(groups.size(), 6u) << "one group per doubled rung";
  for (const chaos::SrlgGroup& grp : groups) {
    EXPECT_EQ(grp.kind, chaos::SrlgGroup::Kind::ParallelSpan);
    ASSERT_EQ(grp.edges.size(), 2u);
    const graph::Edge& a = g.edge(grp.edges[0]);
    const graph::Edge& b = g.edge(grp.edges[1]);
    EXPECT_EQ(std::minmax(a.u, a.v), std::minmax(b.u, b.v))
        << "span members must join the same router pair";
  }
  // A simple ladder (no doubled rungs) has no parallel spans.
  EXPECT_TRUE(chaos::parallel_span_groups(topo::make_grid(2, 6)).empty());
}

TEST(Srlg, RegionalGroupsRespectRadiusAndCap) {
  const graph::Graph g = topo::make_grid(4, 5);
  constexpr std::size_t kRadius = 2;
  constexpr std::size_t kMaxEdges = 5;
  Rng rng(77);
  const auto groups = chaos::regional_groups(g, 4, kRadius, rng, kMaxEdges);
  ASSERT_FALSE(groups.empty());
  for (const chaos::SrlgGroup& grp : groups) {
    EXPECT_EQ(grp.kind, chaos::SrlgGroup::Kind::Regional);
    ASSERT_NE(grp.center, graph::kInvalidNode);
    EXPECT_LE(grp.edges.size(), kMaxEdges);
    EXPECT_TRUE(std::is_sorted(grp.edges.begin(), grp.edges.end()));
    const spf::ShortestPathTree ball = spf::shortest_tree(
        g, grp.center, FailureMask::none(), SpfOptions{.metric = Metric::Hops});
    for (const EdgeId e : grp.edges) {
      EXPECT_LE(ball.dist(g.edge(e).u), kRadius) << "edge " << e;
      EXPECT_LE(ball.dist(g.edge(e).v), kRadius) << "edge " << e;
    }
  }
  // Deterministic per seed: replaying the same seed reproduces the catalog.
  Rng replay(77);
  const auto again = chaos::regional_groups(g, 4, kRadius, replay, kMaxEdges);
  ASSERT_EQ(groups.size(), again.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].center, again[i].center);
    EXPECT_EQ(groups[i].edges, again[i].edges);
  }
}

TEST(Srlg, SampleFailureIsAUnionOfGroups) {
  const graph::Graph g = rbpc::testing::make_parallel_span_ladder(8);
  Rng rng(123);
  const chaos::SrlgCatalog catalog = chaos::SrlgCatalog::discover(g, 3, 1, rng);
  ASSERT_FALSE(catalog.empty());
  std::set<EdgeId> member_edges;
  for (const chaos::SrlgGroup& grp : catalog.groups()) {
    member_edges.insert(grp.edges.begin(), grp.edges.end());
  }
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const FailureMask mask = catalog.sample_failure(2, rng);
    const auto failed = mask.failed_edges();
    ASSERT_FALSE(failed.empty());
    for (const EdgeId e : failed) {
      EXPECT_TRUE(member_edges.count(e))
          << "failed edge " << e << " belongs to no shared-risk group";
    }
  }
}

// The point of SRLG scenarios: correlated cuts are still restorable and
// still lemma-clean — sweep every SRLG-prone corpus shape under sampled
// group unions with both restoration tiebreaks.
TEST(Srlg, RestorationUnderCorrelatedCuts) {
  for (const TopoCase& tc : corpus()) {
    Rng rng(0x5A1A ^ std::hash<std::string>{}(tc.name));
    const chaos::SrlgCatalog catalog =
        chaos::SrlgCatalog::discover(tc.g, 2, 2, rng, /*max_edges=*/6);
    if (catalog.empty()) continue;
    spf::DistanceOracle oracle(tc.g, FailureMask::none(), Metric::Hops);
    AllPairsShortestBaseSet base(oracle);
    for (std::size_t trial = 0; trial < 3; ++trial) {
      const FailureMask mask = catalog.sample_failure(2, rng);
      const auto [s, t] = random_pair(tc.g, rng);
      std::ostringstream tag;
      tag << tc.name << " srlg trial=" << trial;
      expect_lemma_clean_pair(base, mask, s, t, tag.str());
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Storm, SrlgGroupsFailAtomically) {
  const graph::Graph g = rbpc::testing::make_parallel_span_ladder(6);
  Rng discover_rng(9);
  const chaos::SrlgCatalog catalog =
      chaos::SrlgCatalog::discover(g, 0, 1, discover_rng);
  ASSERT_FALSE(catalog.empty());
  chaos::StormConfig config;
  config.events = 60;
  config.max_concurrent = 6;
  config.recover_bias = 0.3;
  config.srlg_groups = catalog.edge_lists();
  config.srlg_bias = 0.9;
  Rng rng(4242);
  const chaos::Storm storm = chaos::plan_storm(g, config, rng);

  // Group the truth stream's down transitions by timestamp; at least one
  // timestamp must carry an entire group going down as one unit.
  std::map<double, std::set<EdgeId>> downs_at;
  for (const chaos::StormEvent& ev : storm.truth) {
    if (!ev.event.up) downs_at[ev.at].insert(ev.event.edge);
  }
  std::size_t atomic_group_cuts = 0;
  for (const auto& [at, edges] : downs_at) {
    for (const auto& group : config.srlg_groups) {
      const std::set<EdgeId> want(group.begin(), group.end());
      if (want.size() >= 2 &&
          std::includes(edges.begin(), edges.end(), want.begin(),
                        want.end())) {
        ++atomic_group_cuts;
        break;
      }
    }
  }
  EXPECT_GE(atomic_group_cuts, 1u)
      << "with srlg_bias=0.9 the plan must contain whole-group cuts";

  // Determinism: replaying the seed reproduces the storm byte for byte.
  Rng replay(4242);
  const chaos::Storm again = chaos::plan_storm(g, config, replay);
  ASSERT_EQ(storm.truth.size(), again.truth.size());
  for (std::size_t i = 0; i < storm.truth.size(); ++i) {
    EXPECT_EQ(storm.truth[i].at, again.truth[i].at);
    EXPECT_EQ(storm.truth[i].event.edge, again.truth[i].event.edge);
    EXPECT_EQ(storm.truth[i].event.up, again.truth[i].event.up);
    EXPECT_EQ(storm.truth[i].event.generation, again.truth[i].event.generation);
  }
}

// srlg_bias = 0 must leave storm planning bit-identical to a group-free
// config: the SRLG branch consumes no randomness when disabled.
TEST(Storm, ZeroSrlgBiasIsBitIdenticalToSeedStorms) {
  const graph::Graph g = rbpc::testing::make_parallel_span_ladder(6);
  Rng discover_rng(9);
  const chaos::SrlgCatalog catalog =
      chaos::SrlgCatalog::discover(g, 2, 1, discover_rng);
  chaos::StormConfig plain;
  plain.events = 40;
  chaos::StormConfig with_groups = plain;
  with_groups.srlg_groups = catalog.edge_lists();
  with_groups.srlg_bias = 0.0;

  Rng rng_a(777);
  Rng rng_b(777);
  const chaos::Storm a = chaos::plan_storm(g, plain, rng_a);
  const chaos::Storm b = chaos::plan_storm(g, with_groups, rng_b);
  ASSERT_EQ(a.truth.size(), b.truth.size());
  for (std::size_t i = 0; i < a.truth.size(); ++i) {
    EXPECT_EQ(a.truth[i].at, b.truth[i].at);
    EXPECT_EQ(a.truth[i].event.edge, b.truth[i].event.edge);
    EXPECT_EQ(a.truth[i].event.up, b.truth[i].event.up);
    EXPECT_EQ(a.truth[i].event.generation, b.truth[i].event.generation);
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].at, b.deliveries[i].at);
    EXPECT_EQ(a.deliveries[i].event.edge, b.deliveries[i].event.edge);
  }
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.duplicated, b.duplicated);
}

// --- tiebreak policy semantics ----------------------------------------------

// Restorable tiebreaking is hop-dominant: among equal-cost routes it picks
// the one with fewer hops (fewer hops = fewer potential pieces).
TEST(Tiebreak, RestorablePrefersFewerHopsAmongTies) {
  //  0 --1-- 1 --1-- 2 --1-- 3 --1-- 4    chain, cost 4, 4 hops
  //  0 ------2------ 2 ------2------ 4    shortcuts, cost 4, 2 hops
  graph::GraphBuilder b(5);
  for (NodeId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, 1);
  b.add_edge(0, 2, 2);
  b.add_edge(2, 4, 2);
  const graph::Graph g = b.build();
  const SpfOptions restorable{.metric = Metric::Weighted,
                              .padded = true,
                              .tiebreak = TiebreakPolicy::Restorable};
  const spf::ShortestPathTree tree = spf::shortest_tree(g, 0, {}, restorable);
  EXPECT_EQ(tree.dist(4), 4u);
  EXPECT_EQ(tree.hops(4), 2u) << "restorable tiebreak must take the shortcuts";
  EXPECT_EQ(tree.hops(2), 1u);
  EXPECT_EQ(tree.tiebreak(), TiebreakPolicy::Restorable);
}

// Lexicographic tiebreaking resolves parallel-edge ties towards the lowest
// edge id — stable under re-seeding, unlike the Arbitrary salts.
TEST(Tiebreak, LexicographicPrefersLowerEdgeIds) {
  graph::GraphBuilder b(2);
  const EdgeId first = b.add_edge(0, 1, 1);
  b.add_edge(0, 1, 1);  // the parallel twin
  const graph::Graph g = b.build();
  const graph::Path p = spf::shortest_path(
      g, 0, 1, {},
      SpfOptions{.metric = Metric::Weighted,
                 .padded = true,
                 .tiebreak = TiebreakPolicy::Lexicographic});
  ASSERT_EQ(p.hops(), 1u);
  EXPECT_EQ(p.edges().front(), first);
}

// Unpadded runs have no tie to break: the recorded policy normalizes to
// Arbitrary so flavor comparisons cannot distinguish salt schemes that
// never influenced the tree.
TEST(Tiebreak, UnpaddedTreesNormalizeToArbitrary) {
  const graph::Graph g = rbpc::testing::make_dual_plane_core(6);
  const spf::ShortestPathTree a = spf::shortest_tree(
      g, 0, {},
      SpfOptions{.metric = Metric::Weighted,
                 .padded = false,
                 .tiebreak = TiebreakPolicy::Restorable});
  const spf::ShortestPathTree b = spf::shortest_tree(
      g, 0, {},
      SpfOptions{.metric = Metric::Weighted,
                 .padded = false,
                 .tiebreak = TiebreakPolicy::Lexicographic});
  EXPECT_EQ(a.tiebreak(), TiebreakPolicy::Arbitrary);
  EXPECT_TRUE(trees_identical(a, b));
}

// --- bit-identity across compute paths ---------------------------------------

// Every way of obtaining a tree for one (mask, policy) flavor — scratch
// SPF, from-scratch TreeCache, repair-mode TreeCache, SnapshotTreePool —
// must produce the identical tree, for every tiebreak policy.
TEST(Tiebreak, BitIdenticalAcrossComputePaths) {
  const auto cases = corpus();
  for (std::size_t i = 0; i < cases.size(); i += 10) {
    const TopoCase& tc = cases[i];
    Rng rng(0x1DE ^ std::hash<std::string>{}(tc.name));
    const FailureMask mask = random_edge_failures(tc.g, 2, rng);
    for (const TiebreakPolicy policy : kPolicies) {
      const SpfOptions options{
          .metric = Metric::Weighted, .padded = true, .tiebreak = policy};
      spf::TreeCache scratch_cache(tc.g, mask, options);
      spf::TreeCache base_cache(tc.g, FailureMask::none(), options);
      spf::TreeCache repair_cache(tc.g, mask, options, &base_cache);
      spf::SnapshotTreePool pool(tc.g, options);
      for (std::size_t pick = 0; pick < 2; ++pick) {
        const NodeId s =
            static_cast<NodeId>(rng.below(tc.g.num_nodes()));
        const spf::ShortestPathTree want =
            spf::shortest_tree(tc.g, s, mask, options);
        EXPECT_TRUE(matches_reference(
            want, reference_dijkstra(tc.g, s, mask, options)))
            << tc.name << " policy=" << to_string(policy) << " s=" << s;
        EXPECT_TRUE(trees_identical(want, *scratch_cache.tree(s)))
            << tc.name << " [scratch cache] policy=" << to_string(policy);
        EXPECT_TRUE(trees_identical(want, *repair_cache.tree(s)))
            << tc.name << " [repair cache] policy=" << to_string(policy);
        EXPECT_TRUE(trees_identical(want, *pool.cache_for(mask)->tree(s)))
            << tc.name << " [tree pool] policy=" << to_string(policy);
      }
    }
  }
}

// Thread count must never change a tree: all-source builds through a
// ThreadPool equal the serial builds, node for node, for the tie-heaviest
// corpus shape under the Restorable policy.
TEST(Tiebreak, BitIdenticalAcrossThreadCounts) {
  const graph::Graph g = rbpc::testing::make_dual_plane_core(8);
  const SpfOptions options{.metric = Metric::Weighted,
                           .padded = true,
                           .tiebreak = TiebreakPolicy::Restorable};
  std::vector<spf::ShortestPathTree> serial;
  serial.reserve(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    serial.push_back(spf::shortest_tree(g, s, {}, options));
  }
  for (const std::size_t threads : {2u, 4u}) {
    std::vector<std::unique_ptr<spf::ShortestPathTree>> parallel(
        g.num_nodes());
    ThreadPool pool(threads);
    pool.parallel_for(g.num_nodes(), [&](std::size_t s) {
      parallel[s] = std::make_unique<spf::ShortestPathTree>(spf::shortest_tree(
          g, static_cast<NodeId>(s), {}, options));
    });
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      EXPECT_TRUE(trees_identical(serial[s], *parallel[s]))
          << "threads=" << threads << " source=" << s;
    }
  }
}

// --- mixed-policy no-aliasing (oracle + pool) --------------------------------

// Querying several policies through one DistanceOracle must never hand one
// policy's canonical tree to another — interleaved queries keep answering
// exactly what a policy-pure oracle answers.
TEST(Oracle, MixedPolicyQueriesNeverAlias) {
  std::size_t divergent_pairs = 0;
  for (const char* name :
       {"span_ladder6", "dual_plane6", "dual_plane8", "ring_of_rings3x5"}) {
    const auto cases = corpus();
    const auto it = std::find_if(cases.begin(), cases.end(),
                                 [&](const TopoCase& c) {
                                   return c.name == name;
                                 });
    ASSERT_NE(it, cases.end());
    const graph::Graph& g = it->g;
    spf::DistanceOracle mixed(g, FailureMask::none(), Metric::Weighted);
    // Policy-pure oracles as ground truth.
    std::array<std::unique_ptr<spf::DistanceOracle>, 3> pure;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      pure[p] = std::make_unique<spf::DistanceOracle>(
          g, FailureMask::none(), Metric::Weighted, 0, 0, kPolicies[p]);
    }
    Rng rng(0xA11A5 ^ std::hash<std::string>{}(it->name));
    for (std::size_t trial = 0; trial < 6; ++trial) {
      const auto [u, v] = random_pair(g, rng);
      std::array<graph::Path, 3> got;
      // Interleave: all policies against the shared oracle back to back.
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        got[p] = mixed.canonical_path(u, v, kPolicies[p]);
      }
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        EXPECT_EQ(got[p], pure[p]->canonical_path(u, v))
            << it->name << " " << to_string(kPolicies[p]) << " " << u << "->"
            << v;
        EXPECT_EQ(mixed.padded_tree(u, kPolicies[p]).tiebreak(), kPolicies[p]);
        // The mixed oracle must also agree that its own answer is canonical
        // under the same policy (and membership is policy-scoped).
        EXPECT_TRUE(mixed.is_canonical(got[p].view(), kPolicies[p]));
      }
      if (got[0] != got[1] || got[1] != got[2] || got[0] != got[2]) {
        ++divergent_pairs;
      }
    }
  }
  // The regression must bite: on these tie-heavy shapes the policies must
  // actually disagree somewhere, otherwise aliasing would be invisible.
  EXPECT_GE(divergent_pairs, 1u);
}

// Count-bound eviction is per policy cache, and a re-queried evicted tree
// comes back bit-identical — eviction churn across policies never corrupts
// answers.
TEST(Oracle, EvictionAcrossPolicyCachesStaysCorrect) {
  const graph::Graph g = rbpc::testing::make_dual_plane_core(6);
  spf::DistanceOracle oracle(g, FailureMask::none(), Metric::Weighted,
                             /*max_cached_trees=*/1);
  const auto expect_fresh = [&](NodeId u, TiebreakPolicy policy) {
    const SpfOptions options{
        .metric = Metric::Weighted, .padded = true, .tiebreak = policy};
    EXPECT_TRUE(trees_identical(spf::shortest_tree(g, u, {}, options),
                                oracle.padded_tree(u, policy)))
        << "u=" << u << " policy=" << to_string(policy);
  };
  // Each policy's cache holds one tree; rotating sources within a policy
  // forces eviction, rotating policies must not (separate caches).
  for (std::size_t round = 0; round < 3; ++round) {
    for (const TiebreakPolicy policy : kPolicies) {
      expect_fresh(static_cast<NodeId>(round), policy);
      expect_fresh(static_cast<NodeId>(round + 3), policy);
    }
  }
  const std::size_t runs_after_churn = oracle.spf_runs();
  EXPECT_GT(runs_after_churn, kPolicies.size())
      << "max_cached_trees=1 must have evicted and recomputed";
  // Re-querying the newest tree of each policy is a pure cache hit.
  for (const TiebreakPolicy policy : kPolicies) {
    oracle.padded_tree(static_cast<NodeId>(2 + 3), policy);
  }
  EXPECT_EQ(oracle.spf_runs(), runs_after_churn);
}

// Byte-bound eviction spans all policy caches but must always keep the
// newest tree — and survivors keep answering correctly.
TEST(Oracle, ByteBoundEvictionSpansPolicyCaches) {
  const graph::Graph g = rbpc::testing::make_dual_plane_core(6);
  const std::size_t one_tree_bytes =
      spf::shortest_tree(g, 0, {},
                         SpfOptions{.metric = Metric::Weighted, .padded = true})
          .memory_bytes();
  spf::DistanceOracle oracle(g, FailureMask::none(), Metric::Weighted,
                             /*max_cached_trees=*/0,
                             /*max_cached_bytes=*/one_tree_bytes);
  for (std::size_t round = 0; round < 2; ++round) {
    for (const TiebreakPolicy policy : kPolicies) {
      const NodeId u = static_cast<NodeId>(round);
      const SpfOptions options{
          .metric = Metric::Weighted, .padded = true, .tiebreak = policy};
      EXPECT_TRUE(trees_identical(spf::shortest_tree(g, u, {}, options),
                                  oracle.padded_tree(u, policy)));
      EXPECT_LE(oracle.cached_trees(), 1u)
          << "byte bound of one tree must evict down to the newest";
    }
  }
}

// A pool's policy is its SpfOptions::tiebreak: every view repairs from a
// base of that policy, so its trees equal scratch SPF under it. Views are
// keyed by the exact mask, LRU-evicted, and an evicted view keeps working
// through its surviving shared_ptr.
TEST(TreePool, PolicyIsPartOfTheViewKey) {
  const graph::Graph g = rbpc::testing::make_dual_plane_core(6);
  const SpfOptions options{.metric = Metric::Weighted,
                           .padded = true,
                           .tiebreak = TiebreakPolicy::Restorable};
  spf::SnapshotTreePool pool(g, options,
                             spf::TreePoolOptions{.max_views = 2});
  const FailureMask mask = FailureMask::of_edges({0});

  const auto view = pool.cache_for(mask);
  EXPECT_EQ(view->options().tiebreak, TiebreakPolicy::Restorable);
  EXPECT_EQ(pool.views_created(), 1u);
  EXPECT_EQ(pool.cache_for(FailureMask::of_edges({0})).get(), view.get())
      << "an equal mask must find the same view";
  EXPECT_EQ(pool.view_hits(), 1u);
  EXPECT_TRUE(trees_identical(spf::shortest_tree(g, 2, mask, options),
                              *view->tree(2)));

  // Two more distinct views evict the LRU one; the held pointer survives.
  pool.cache_for(FailureMask::of_edges({1}));
  EXPECT_EQ(pool.views_evicted(), 0u);
  pool.cache_for(FailureMask::of_edges({2}));
  EXPECT_EQ(pool.views_evicted(), 1u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(trees_identical(
      spf::shortest_tree(g, 3, mask, options), *view->tree(3)))
      << "evicted view must stay usable through the shared_ptr";
}

// --- differential SPF fuzz (seeded, shrinking) -------------------------------

/// One fuzz instance: an edge list (multi-edges welcome — they are the tie
/// generators), a failed subset, a source, and the SPF options under test.
struct FuzzCase {
  std::size_t num_nodes = 0;
  struct E {
    NodeId u, v;
    graph::Weight w;
    bool failed;
  };
  std::vector<E> edges;
  NodeId source = 0;
  SpfOptions options;

  graph::Graph build_graph() const {
    graph::GraphBuilder b(num_nodes);
    for (const E& e : edges) b.add_edge(e.u, e.v, e.w);
    return b.build();
  }
  FailureMask build_mask() const {
    FailureMask mask;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].failed) mask.fail_edge(static_cast<EdgeId>(i));
    }
    return mask;
  }
  std::string describe() const {
    std::ostringstream os;
    os << "n=" << num_nodes << " source=" << source
       << " policy=" << to_string(options.tiebreak) << " edges=[";
    for (const E& e : edges) {
      os << "(" << e.u << "," << e.v << ",w" << e.w
         << (e.failed ? ",DOWN" : "") << ")";
    }
    os << "]";
    return os.str();
  }
};

/// True when scratch SPF or repair-mode TreeCache diverges from the
/// reference Dijkstra on this instance.
bool fuzz_mismatch(const FuzzCase& c) {
  const graph::Graph g = c.build_graph();
  const FailureMask mask = c.build_mask();
  const auto ref = reference_dijkstra(g, c.source, mask, c.options);
  const spf::ShortestPathTree scratch =
      spf::shortest_tree(g, c.source, mask, c.options);
  if (!matches_reference(scratch, ref)) return true;
  spf::TreeCache base(g, FailureMask::none(), c.options);
  spf::TreeCache view(g, mask, c.options, &base);
  return !matches_reference(*view.tree(c.source), ref);
}

/// Greedy shrink: repeatedly drop any edge whose removal preserves the
/// mismatch, until no single removal does.
FuzzCase shrink_fuzz_case(FuzzCase c) {
  bool shrunk = true;
  while (shrunk && c.edges.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < c.edges.size(); ++i) {
      FuzzCase candidate = c;
      candidate.edges.erase(candidate.edges.begin() + i);
      if (fuzz_mismatch(candidate)) {
        c = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return c;
}

TEST(Fuzz, DifferentialSpfVsReferenceDijkstra) {
  Rng rng(0xD1FF);
  for (std::size_t iter = 0; iter < 200; ++iter) {
    FuzzCase c;
    c.num_nodes = 4 + rng.below(12);
    const std::size_t num_edges = c.num_nodes + rng.below(2 * c.num_nodes);
    // Half the instances are tie-heavy (unit weights), half weighted.
    const graph::Weight max_w = (iter % 2 == 0) ? 1 : 7;
    for (std::size_t i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng.below(c.num_nodes));
      const NodeId v = static_cast<NodeId>(rng.below(c.num_nodes));
      if (u == v) continue;  // builder rejects self-loops
      c.edges.push_back({u, v,
                         static_cast<graph::Weight>(1 + rng.below(max_w)),
                         /*failed=*/rng.chance(0.15)});
    }
    if (c.edges.empty()) continue;
    c.source = static_cast<NodeId>(rng.below(c.num_nodes));
    c.options = SpfOptions{
        .metric = (iter % 3 == 0) ? Metric::Hops : Metric::Weighted,
        .padded = true,
        .tiebreak = kPolicies[iter % kPolicies.size()]};
    if (fuzz_mismatch(c)) {
      const FuzzCase minimal = shrink_fuzz_case(c);
      FAIL() << "SPF diverged from reference Dijkstra; minimal reproducer: "
             << minimal.describe();
    }
  }
}

}  // namespace
}  // namespace rbpc
