// Tests for merged destination trees (mpls::Network) and the controller's
// merged label plan: functional equivalence with the per-pair plan, plus the
// label-economics advantage.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "graph/analysis.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::core {
namespace {

using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

// --- mpls-level merged trees -----------------------------------------------------

TEST(MergedTree, ForwardsAllSourcesToDest) {
  const Graph g = topo::make_grid(3, 3);
  mpls::Network net(g);
  const auto tree = spf::shortest_tree(g, 4, FailureMask::none(),
                                       spf::SpfOptions{.padded = true});
  std::vector<NodeId> parent(g.num_nodes(), graph::kInvalidNode);
  std::vector<EdgeId> parent_edge(g.num_nodes(), graph::kInvalidEdge);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 4 || !tree.reachable(v)) continue;
    parent[v] = tree.parent(v);
    parent_edge[v] = tree.parent_edge(v);
  }
  net.provision_merged_tree(4, parent, parent_edge);
  EXPECT_TRUE(net.has_merged_tree(4));
  EXPECT_FALSE(net.has_merged_tree(0));

  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (s == 4) continue;
    mpls::LabelStack stack;
    stack.push(net.merged_label(s, 4));
    const auto r = net.send_with_stack(s, 4, stack);
    ASSERT_TRUE(r.delivered()) << "from " << s;
    EXPECT_EQ(static_cast<graph::Weight>(r.hops), tree.dist(s));
  }
}

TEST(MergedTree, OneLabelPerRouter) {
  const Graph g = topo::make_ring(6);
  mpls::Network net(g);
  const auto tree = spf::shortest_tree(g, 0, FailureMask::none(),
                                       spf::SpfOptions{.padded = true});
  std::vector<NodeId> parent(g.num_nodes(), graph::kInvalidNode);
  std::vector<EdgeId> parent_edge(g.num_nodes(), graph::kInvalidEdge);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    parent[v] = tree.parent(v);
    parent_edge[v] = tree.parent_edge(v);
  }
  net.provision_merged_tree(0, parent, parent_edge);
  // Exactly one entry per router for the whole destination.
  EXPECT_EQ(net.total_ilm_entries(), g.num_nodes());
}

TEST(MergedTree, RejectsDoubleProvision) {
  const Graph g = topo::make_ring(4);
  mpls::Network net(g);
  std::vector<NodeId> parent(4, graph::kInvalidNode);
  std::vector<EdgeId> parent_edge(4, graph::kInvalidEdge);
  parent[1] = 0;
  parent_edge[1] = 0;
  net.provision_merged_tree(0, parent, parent_edge);
  EXPECT_THROW(net.provision_merged_tree(0, parent, parent_edge),
               PreconditionError);
  EXPECT_EQ(net.merged_label(3, 0), mpls::kInvalidLabel);  // not covered
  EXPECT_EQ(net.merged_label(3, 2), mpls::kInvalidLabel);  // no tree
}

// --- merged label plan ----------------------------------------------------------

class MergedControllerTest : public ::testing::Test {
 protected:
  MergedControllerTest()
      : g_(topo::make_ring(8)),
        ctl_(g_, spf::Metric::Hops, RbpcController::LabelPlan::Merged) {
    ctl_.provision();
  }
  Graph g_;
  RbpcController ctl_;
};

TEST_F(MergedControllerTest, DeliversAllPairsOptimally) {
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const auto r = ctl_.send(s, t);
      ASSERT_TRUE(r.delivered()) << s << "->" << t;
      EXPECT_EQ(static_cast<graph::Weight>(r.hops),
                spf::distance(g_, s, t, FailureMask::none(),
                              spf::SpfOptions{.metric = spf::Metric::Hops}));
    }
  }
}

TEST_F(MergedControllerTest, RestoresAfterFailureAndRecovers) {
  ctl_.fail_link(0);
  EXPECT_GT(ctl_.pairs_under_restoration(), 0u);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const auto r = ctl_.send(s, t);
      ASSERT_TRUE(r.delivered()) << s << "->" << t;
      EXPECT_EQ(static_cast<graph::Weight>(r.hops),
                spf::distance(g_, s, t, ctl_.failures(),
                              spf::SpfOptions{.metric = spf::Metric::Hops}));
    }
  }
  ctl_.recover_link(0);
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
  EXPECT_TRUE(ctl_.send(0, 1).delivered());
}

TEST_F(MergedControllerTest, LocalPatchRepairsAllTrafficThroughLink) {
  ctl_.fail_link(3);
  const std::size_t patched = ctl_.local_patch(3);
  EXPECT_GT(patched, 0u);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      EXPECT_TRUE(ctl_.send(s, t).delivered()) << s << "->" << t;
    }
  }
  ctl_.recover_link(3);
  EXPECT_TRUE(ctl_.send(3, 4).delivered());
}

TEST_F(MergedControllerTest, RouterFailureAndRecovery) {
  ctl_.fail_router(5);
  for (NodeId s = 0; s < 8; ++s) {
    if (s == 5) continue;
    for (NodeId t = 0; t < 8; ++t) {
      if (t == 5 || s == t) continue;
      const auto r = ctl_.send(s, t);
      const auto want =
          spf::distance(g_, s, t, ctl_.failures(),
                        spf::SpfOptions{.metric = spf::Metric::Hops});
      if (want == graph::kUnreachable) {
        EXPECT_FALSE(r.delivered());
      } else {
        ASSERT_TRUE(r.delivered()) << s << "->" << t;
        EXPECT_EQ(static_cast<graph::Weight>(r.hops), want);
      }
    }
  }
  ctl_.recover_router(5);
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
  EXPECT_TRUE(ctl_.send(4, 6).delivered());
  EXPECT_THROW(ctl_.recover_router(5), PreconditionError);
}

TEST_F(MergedControllerTest, Guards) {
  EXPECT_THROW(ctl_.local_patch(0), PreconditionError);  // not failed
  EXPECT_THROW(ctl_.recover_link(0), PreconditionError);
  ctl_.fail_link(0);
  EXPECT_THROW(ctl_.fail_link(0), PreconditionError);
}

// Sends every ordered pair through both controllers: same delivery, same
// route, and send_or_throw refuses the same pairs.
void expect_same_delivery(RbpcController& per_lsp, RbpcController& merged) {
  const NodeId n = per_lsp.network().graph().num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto a = per_lsp.send(s, t);
      const auto b = merged.send(s, t);
      ASSERT_EQ(a.delivered(), b.delivered()) << s << "->" << t;
      if (a.delivered()) {
        // Both restore along the same canonical min-cost route.
        EXPECT_EQ(a.trace, b.trace) << s << "->" << t;
      }
      bool a_throws = false;
      bool b_throws = false;
      try {
        per_lsp.send_or_throw(s, t);
      } catch (const NoRouteError&) {
        a_throws = true;
      }
      try {
        merged.send_or_throw(s, t);
      } catch (const NoRouteError&) {
        b_throws = true;
      }
      EXPECT_EQ(a_throws, b_throws) << s << "->" << t;
    }
  }
  EXPECT_EQ(per_lsp.pairs_under_restoration(),
            merged.pairs_under_restoration());
}

TEST(MergedController, EquivalentDeliveryToPerLspController) {
  Rng rng(111);
  const Graph g = topo::make_random_connected(20, 50, rng, 7);
  RbpcController per_lsp(g, spf::Metric::Weighted);
  per_lsp.provision();
  RbpcController merged(g, spf::Metric::Weighted,
                        RbpcController::LabelPlan::Merged);
  merged.provision();

  for (int round = 0; round < 4; ++round) {
    const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
    if (per_lsp.failures().edge_failed(e)) continue;
    per_lsp.fail_link(e);
    merged.fail_link(e);
    expect_same_delivery(per_lsp, merged);
    per_lsp.recover_link(e);
    merged.recover_link(e);
  }

  // A router failure on top of a link failure, then both recoveries.
  const NodeId dead = static_cast<NodeId>(rng.below(g.num_nodes()));
  const EdgeId cut = static_cast<EdgeId>(rng.below(g.num_edges()));
  for (RbpcController* ctl : {&per_lsp, &merged}) {
    ctl->fail_link(cut);
    ctl->fail_router(dead);
  }
  EXPECT_GT(merged.pairs_under_restoration(), 0u);
  expect_same_delivery(per_lsp, merged);
  for (RbpcController* ctl : {&per_lsp, &merged}) ctl->recover_router(dead);
  expect_same_delivery(per_lsp, merged);
  for (RbpcController* ctl : {&per_lsp, &merged}) ctl->recover_link(cut);
  expect_same_delivery(per_lsp, merged);
  EXPECT_EQ(merged.pairs_under_restoration(), 0u);

  // Graceful degradation on a ring with two pendant routers: cutting a
  // ring link reroutes, cutting a pendant link leaves pairs with no route
  // under the view. With the ladder on, both plans retain the same stale
  // entries, which still deliver while the link is actually up; with it
  // off, both clear the same entries.
  graph::GraphBuilder builder(8);
  for (NodeId v = 0; v < 6; ++v) builder.add_edge(v, (v + 1) % 6);
  builder.add_edge(0, 6);
  builder.add_edge(3, 7);
  const Graph pendant = builder.build();
  const std::vector<EdgeId> bridges = graph::find_bridges(pendant);
  ASSERT_EQ(bridges.size(), 2u);
  for (bool degrade : {true, false}) {
    RbpcController a(pendant, spf::Metric::Weighted);
    RbpcController b(pendant, spf::Metric::Weighted,
                     RbpcController::LabelPlan::Merged);
    for (RbpcController* ctl : {&a, &b}) {
      ctl->set_graceful_degradation(degrade);
      ctl->provision();
      ctl->fail_link(1);
      ctl->fail_link(bridges.front());
      ctl->network().set_failures(FailureMask{});  // the view is stale
    }
    const DegradeStats sa = a.degrade_stats();
    const DegradeStats sb = b.degrade_stats();
    EXPECT_GT(degrade ? sa.degraded_pairs : sa.no_route, 0u);
    EXPECT_EQ(sa.degraded_pairs, sb.degraded_pairs);
    EXPECT_EQ(sa.stale_fec, sb.stale_fec);
    EXPECT_EQ(sa.no_route, sb.no_route);
    expect_same_delivery(a, b);
    for (RbpcController* ctl : {&a, &b}) {
      ctl->recover_link(bridges.front());
      ctl->recover_link(1);
    }
    EXPECT_EQ(b.degrade_stats().degraded_pairs, 0u);
    EXPECT_EQ(b.pairs_under_restoration(), 0u);
    expect_same_delivery(a, b);
  }
}

TEST(MergedController, LabelEconomics) {
  Rng rng(113);
  const Graph g = topo::make_isp_like(rng);
  RbpcController per_lsp(g, spf::Metric::Weighted);
  per_lsp.provision();
  RbpcController merged(g, spf::Metric::Weighted,
                        RbpcController::LabelPlan::Merged);
  merged.provision();
  // Merged mode: ~n entries per router vs ~n * avg-path-length total.
  EXPECT_LT(merged.network().total_ilm_entries(),
            per_lsp.network().total_ilm_entries() / 3);
  // Per router: at most n merged labels + 2 edge-LSP entries per incident
  // link (ingress of the outgoing one-hop LSP, egress of the incoming one).
  const auto max_deg = graph::degree_stats(g).max;
  EXPECT_LE(merged.network().max_ilm_entries(), g.num_nodes() + 2 * max_deg);
}

}  // namespace
}  // namespace rbpc::core
