// Tests for core/fec_update (precomputed per-link FEC update plans) and
// their integration into RbpcController.
#include <gtest/gtest.h>

#include "core/base_set.hpp"
#include "core/controller.hpp"
#include "core/fec_update.hpp"
#include "graph/path_arena.hpp"
#include "mpls/ldp.hpp"
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

TEST(FecUpdatePlan, CoversExactlyTheAffectedPairs) {
  const Graph g = topo::make_ring(6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet base(oracle);
  const FecUpdatePlan plan = compute_fec_update_plan(base, 0);  // link (0,1)
  EXPECT_EQ(plan.link, 0u);
  EXPECT_FALSE(plan.updates.empty());
  graph::PathArena arena;
  for (const FecUpdate& u : plan.updates) {
    const graph::Path primary =
        arena.to_path(g, base.base_path_ref(u.src, u.dst, arena));
    EXPECT_TRUE(primary.uses_edge(0)) << u.src << "->" << u.dst;
    // The replacement chain restores the pair around the failure.
    ASSERT_FALSE(u.chain.empty());
    const auto joined = u.chain.joined();
    EXPECT_EQ(joined.source(), u.src);
    EXPECT_EQ(joined.target(), u.dst);
    EXPECT_FALSE(joined.uses_edge(0));
  }
}

TEST(FecUpdatePlan, DisconnectedPairsGetEmptyChains) {
  const Graph g = topo::make_chain(4);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet base(oracle);
  const FecUpdatePlan plan = compute_fec_update_plan(base, 1);  // bridge
  EXPECT_FALSE(plan.updates.empty());
  for (const FecUpdate& u : plan.updates) {
    EXPECT_TRUE(u.chain.empty());
  }
}

TEST(FecUpdatePlan, AllPlansCoverEveryLink) {
  const Graph g = topo::make_ring(5);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Hops);
  CanonicalBaseSet base(oracle);
  std::vector<FecUpdatePlan> plans;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    plans.push_back(compute_fec_update_plan(base, e));
  }
  ASSERT_EQ(plans.size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(plans[e].link, e);
    // On a ring every link carries some base LSP.
    EXPECT_FALSE(plans[e].updates.empty());
  }
}

TEST(FecUpdatePlan, MatchesOnlineRestorationRoutes) {
  Rng rng(97);
  const Graph g = topo::make_random_connected(18, 40, rng, 6);
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  CanonicalBaseSet base(oracle);
  for (EdgeId e = 0; e < 10; ++e) {
    const FecUpdatePlan plan = compute_fec_update_plan(base, e);
    FailureMask mask;
    mask.fail_edge(e);
    for (const FecUpdate& u : plan.updates) {
      const auto online = spf::shortest_path(
          g, u.src, u.dst, mask, spf::SpfOptions{.padded = true});
      if (online.empty()) {
        EXPECT_TRUE(u.chain.empty());
      } else {
        ASSERT_FALSE(u.chain.empty());
        EXPECT_EQ(u.chain.joined(), online);
      }
    }
  }
}

TEST(ControllerPlans, PlannedFailoverMatchesOnlineFailover) {
  const Graph g = topo::make_ring(8);

  RbpcController online(g, spf::Metric::Hops);
  online.provision();
  RbpcController planned(g, spf::Metric::Hops);
  planned.provision();
  planned.precompute_plan(2);
  EXPECT_EQ(planned.planned_links(), 1u);

  online.fail_link(2);
  planned.fail_link(2);
  EXPECT_EQ(online.pairs_under_restoration(),
            planned.pairs_under_restoration());
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const auto a = online.send(s, t);
      const auto b = planned.send(s, t);
      EXPECT_EQ(a.delivered(), b.delivered());
      if (a.delivered()) {
        EXPECT_EQ(a.trace, b.trace);
      }
    }
  }
  planned.recover_link(2);
  EXPECT_EQ(planned.pairs_under_restoration(), 0u);
}

TEST(ControllerPlans, PlannedFailoverKeepsTheLadder) {
  // On a chain every failure disconnects pairs, so the plan holds empty
  // decompositions. The plan only supplies them: the degradation ladder
  // must decide exactly as it does online — retain stale chains with the
  // ladder on, clear and count no-route with it off.
  const Graph g = topo::make_chain(5);
  for (bool degrade : {true, false}) {
    RbpcController online(g, spf::Metric::Hops);
    RbpcController planned(g, spf::Metric::Hops);
    for (RbpcController* ctl : {&online, &planned}) {
      ctl->set_graceful_degradation(degrade);
      ctl->provision();
    }
    planned.precompute_plan(1);
    online.fail_link(1);
    planned.fail_link(1);

    const DegradeStats a = online.degrade_stats();
    const DegradeStats b = planned.degrade_stats();
    EXPECT_EQ(degrade ? a.stale_fec : a.no_route, 12u) << degrade;
    EXPECT_EQ(a.stale_fec, b.stale_fec) << degrade;
    EXPECT_EQ(a.no_route, b.no_route) << degrade;
    EXPECT_EQ(a.degraded_pairs, b.degraded_pairs) << degrade;
    EXPECT_EQ(online.pairs_under_restoration(),
              planned.pairs_under_restoration());
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        bool online_throws = false;
        bool planned_throws = false;
        try {
          online.send_or_throw(s, t);
        } catch (const NoRouteError&) {
          online_throws = true;
        }
        try {
          planned.send_or_throw(s, t);
        } catch (const NoRouteError&) {
          planned_throws = true;
        }
        EXPECT_EQ(online_throws, planned_throws) << s << "->" << t;
      }
    }
  }
}

TEST(ControllerPlans, PlanIgnoredUnderMultipleFailures) {
  const Graph g = topo::make_ring(8);
  RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();
  ctl.precompute_plan(2);
  ctl.fail_link(5);  // unplanned failure first
  ctl.fail_link(2);  // plan must NOT be applied verbatim now
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const auto r = ctl.send(s, t);
      const auto want =
          spf::distance(g, s, t, ctl.failures(),
                        spf::SpfOptions{.metric = spf::Metric::Hops});
      if (want == graph::kUnreachable) {
        EXPECT_FALSE(r.delivered());
      } else {
        ASSERT_TRUE(r.delivered()) << s << "->" << t;
        EXPECT_EQ(static_cast<graph::Weight>(r.hops), want);
      }
    }
  }
}

// --- LDP latency model --------------------------------------------------------

TEST(Ldp, SetupTimeScalesWithHops) {
  const Graph g = topo::make_chain(5);
  const auto p2 = graph::Path::from_nodes(g, {0, 1, 2});
  const auto p4 = graph::Path::from_nodes(g, {0, 1, 2, 3, 4});
  mpls::LdpParams params;
  EXPECT_LT(mpls::lsp_setup_time(p2, params), mpls::lsp_setup_time(p4, params));
  // 2 hops: request 2*(1+0.2+0.1) + mapping 2*(1+0.2) = 2.6 + 2.4 = 5.0.
  EXPECT_DOUBLE_EQ(mpls::lsp_setup_time(p2, params), 5.0);
}

TEST(Ldp, ResignalAddsNotificationAndProcessing) {
  const Graph g = topo::make_chain(3);
  const auto p = graph::Path::from_nodes(g, {0, 1, 2});
  mpls::LdpParams params;
  const double setup = mpls::lsp_setup_time(p, params);
  EXPECT_DOUBLE_EQ(mpls::resignal_restoration_time(10.0, p, params),
                   10.0 + params.process_delay + setup);
}

TEST(Ldp, Validation) {
  mpls::LdpParams params;
  EXPECT_THROW(mpls::lsp_setup_time(graph::Path{}, params), PreconditionError);
}

}  // namespace
}  // namespace rbpc::core
