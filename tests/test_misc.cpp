// Assorted edge-case coverage: drill self-test (does it catch broken
// control planes?), SPF early-exit equivalence, merged-tree validation,
// generator determinism.
#include <gtest/gtest.h>

#include <sstream>

#include "core/controller.hpp"
#include "apsp.hpp"
#include "util/table.hpp"
#include "core/decompose.hpp"
#include "core/drill.hpp"
#include "mpls/network.hpp"
#include "spf/spf.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

// The drill must detect a control plane that fails to restore: wire it to a
// controller whose fail_link only breaks the data plane and never reroutes.
TEST(DrillSelfTest, CatchesNonRestoringControlPlane) {
  const Graph g = topo::make_ring(8);
  core::RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();

  graph::FailureMask shadow;  // mirrors what a correct plane would know
  core::DrillActions broken;
  broken.fail_link = [&](EdgeId e) {
    shadow.fail_edge(e);
    ctl.network().set_failures(shadow);  // data plane only: no FEC rewrite
  };
  broken.recover_link = [&](EdgeId e) {
    shadow.restore_edge(e);
    ctl.network().set_failures(shadow);
  };
  broken.send = [&](NodeId s, NodeId t) { return ctl.send(s, t); };
  broken.failures = [&]() -> const FailureMask& { return shadow; };

  Rng rng(401);
  core::DrillConfig cfg;
  cfg.steps = 20;
  cfg.recover_bias = 0.0;  // keep failures in place so probes hit them
  cfg.max_concurrent = 2;
  const auto report =
      core::run_failure_drill(g, spf::Metric::Hops, broken, cfg, rng);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violations.size(), 0u);
}

// The drill must also detect wrong-cost (non-optimal) restorations.
TEST(DrillSelfTest, CatchesSuboptimalRoutes) {
  const Graph g = topo::make_ring(8);
  core::RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();

  core::DrillActions skewed;
  skewed.fail_link = [&](EdgeId e) { ctl.fail_link(e); };
  skewed.recover_link = [&](EdgeId e) { ctl.recover_link(e); };
  // Sabotage: probe answers come from a different (rotated) pair, so the
  // reported route usually has the wrong endpoints/cost.
  skewed.send = [&](NodeId s, NodeId t) {
    return ctl.send(t, s == 0 ? 1 : 0);
  };
  skewed.failures = [&]() -> const FailureMask& { return ctl.failures(); };

  Rng rng(403);
  core::DrillConfig cfg;
  cfg.steps = 10;
  const auto report =
      core::run_failure_drill(g, spf::Metric::Hops, skewed, cfg, rng);
  EXPECT_FALSE(report.ok());
}

TEST(SpfEarlyExit, StopAtMatchesFullRun) {
  Rng rng(405);
  const Graph g = topo::make_random_connected(50, 120, rng, 10);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const auto full = spf::shortest_tree(g, s);
    const auto early = spf::shortest_tree(
        g, s, FailureMask::none(), spf::SpfOptions{.stop_at = t});
    EXPECT_EQ(early.dist(t), full.dist(t));
    if (full.reachable(t)) {
      EXPECT_EQ(early.path_to(g, t).cost(g), full.path_to(g, t).cost(g));
    }
  }
}

TEST(SpfEarlyExit, BfsStopAtMatchesFullRun) {
  const Graph g = topo::make_grid(5, 5);
  const auto full = spf::shortest_tree(g, 0, FailureMask::none(),
                                       spf::SpfOptions{.metric = spf::Metric::Hops});
  const auto early = spf::shortest_tree(
      g, 0, FailureMask::none(),
      spf::SpfOptions{.metric = spf::Metric::Hops, .stop_at = 24});
  EXPECT_EQ(early.dist(24), full.dist(24));
}

TEST(MergedTreeValidation, RejectsBrokenParentChains) {
  const Graph g = topo::make_chain(3);
  mpls::Network net(g);
  std::vector<NodeId> parent(3, graph::kInvalidNode);
  std::vector<EdgeId> parent_edge(3, graph::kInvalidEdge);
  // Node 2 claims parent 1, but node 1 is not covered (no parent, not dest).
  parent[2] = 1;
  parent_edge[2] = 1;
  EXPECT_THROW(net.provision_merged_tree(0, parent, parent_edge),
               PreconditionError);
  // Parent without an edge is rejected too.
  std::vector<NodeId> p2(3, graph::kInvalidNode);
  std::vector<EdgeId> pe2(3, graph::kInvalidEdge);
  p2[1] = 0;
  EXPECT_THROW(net.provision_merged_tree(0, p2, pe2), PreconditionError);
  // Wrong array sizes.
  EXPECT_THROW(net.provision_merged_tree(0, {0}, {0}), PreconditionError);
}

TEST(Generators, WaxmanDeterministicPerSeed) {
  Rng a(407);
  Rng b(407);
  const Graph g1 = topo::make_waxman(50, 0.6, 0.3, a);
  const Graph g2 = topo::make_waxman(50, 0.6, 0.3, b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).u, g2.edge(e).u);
    EXPECT_EQ(g1.edge(e).v, g2.edge(e).v);
  }
}

TEST(Generators, IspDeterministicPerSeed) {
  Rng a(409);
  Rng b(409);
  const Graph g1 = topo::make_isp_like(a);
  const Graph g2 = topo::make_isp_like(b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).weight, g2.edge(e).weight);
  }
}

TEST(FailureMaskExtras, RemovedEdgeCountWithOverlap) {
  const Graph g = topo::make_ring(5);
  FailureMask m;
  m.fail_edge(0);   // (0,1)
  m.fail_node(1);   // kills (0,1) again and (1,2)
  EXPECT_EQ(m.removed_edge_count(g), 2u);
}

TEST(ApproxDiameter, ExactOnPathsAndRings) {
  // Double sweep is exact on trees: a chain of n nodes has diameter n-1.
  EXPECT_EQ(spf::approx_hop_diameter(topo::make_chain(10)), 9);
  // Rings: true diameter floor(n/2); double sweep reaches it.
  EXPECT_EQ(spf::approx_hop_diameter(topo::make_ring(10)), 5);
  EXPECT_EQ(spf::approx_hop_diameter(topo::make_ring(11)), 5);
}

TEST(ApproxDiameter, LowerBoundsTrueDiameterOnRandomGraphs) {
  Rng rng(411);
  const Graph g = topo::make_random_connected(30, 60, rng, 1);
  const auto approx = spf::approx_hop_diameter(g);
  // Exact via APSP on the hop metric.
  spf::ApspMatrix apsp(g, FailureMask::none(), spf::Metric::Hops);
  EXPECT_LE(approx, apsp.diameter());
  EXPECT_GE(approx, apsp.diameter() / 2);  // double-sweep guarantee
}

TEST(ApproxDiameter, RespectsMaskAndValidates) {
  const Graph g = topo::make_ring(8);
  // Failing one link turns the ring into a path: diameter 7.
  EXPECT_EQ(spf::approx_hop_diameter(g, FailureMask::of_edges({0})), 7);
  EXPECT_THROW(spf::approx_hop_diameter(g, FailureMask::none(), 0),
               PreconditionError);
}

TEST(TablePrinterExtras, SeparatorRendering) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"3", "4"});
  const std::string text = t.to_text();
  // Three rules: one under the header, one mid-table separator... rule
  // lines are dashes; count them.
  std::size_t rules = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++rules;
    }
  }
  EXPECT_EQ(rules, 2u);
}

TEST(ControllerExtras, SendToSelfDeliversTrivially) {
  const Graph g = topo::make_ring(4);
  core::RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();
  // No FEC entry for (v, v); the network reports it rather than looping.
  const auto r = ctl.send(2, 2);
  EXPECT_EQ(r.status, mpls::ForwardStatus::NoFecEntry);
}

TEST(MplsExtras, IlmEntryToString) {
  mpls::IlmEntry swap_entry{{42}, 3};
  EXPECT_EQ(swap_entry.to_string(), "pop, push 42, out if#3");
  mpls::IlmEntry pop_entry{{}, mpls::kLocalInterface};
  EXPECT_EQ(pop_entry.to_string(), "pop, local");
  mpls::IlmEntry stack_entry{{7, 9}, mpls::kLocalInterface};
  // Printed top-first: 9 then 7.
  EXPECT_EQ(stack_entry.to_string(), "pop, push 9 7, local");
}

TEST(GraphExtras, SummaryMentionsShape) {
  const Graph g = topo::make_ring(5);
  const std::string s = g.summary();
  EXPECT_NE(s.find("undirected"), std::string::npos);
  EXPECT_NE(s.find("5 nodes"), std::string::npos);
  EXPECT_NE(s.find("5 links"), std::string::npos);
}

TEST(DecompositionExtras, EmptyJoined) {
  core::Decomposition d;
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(d.joined().empty());
  EXPECT_EQ(d.base_count(), 0u);
  EXPECT_EQ(d.edge_count(), 0u);
}

}  // namespace
}  // namespace rbpc
