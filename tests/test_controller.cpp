// Integration tests: RbpcController drives the MPLS simulator, and
// correctness is checked by forwarding real packets through the label
// tables before, during, and after failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "core/controller.hpp"
#include "corpus.hpp"
#include "graph/analysis.hpp"
#include "graph/path_arena.hpp"
#include "obs/metrics.hpp"
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
using graph::Path;
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

TEST(Controller, ControllerBuildsNoDistanceOracle) {
  // Canonical membership, default routes, merged trees and SPF repair all
  // read the controller's one store of unfailed trees, so neither label
  // plan caches a tree in a DistanceOracle (whose bytes the
  // rbpc.mem.oracle_trees gauge reports).
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

/// Checks the controller's "default base path still intact" decision pair
/// by pair against Path::alive on the canonical path `canon[u][v]`: a pair
/// with both endpoints up sits on its default single-label entry exactly
/// when that path survives the mask, every other pair with an entry is
/// under restoration, and a pair with a dead endpoint has no entry.
void expect_intact_defaults(const RbpcController& ctl,
                            RbpcController::LabelPlan plan,
                            const std::vector<std::vector<Path>>& canon,
                            const std::string& ctx) {
  const Graph& g = ctl.network().graph();
  const FailureMask& mask = ctl.failures();
  std::size_t restored = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v || canon[u][v].empty()) continue;
      const std::string pair =
          ctx + " " + std::to_string(u) + "->" + std::to_string(v);
      const mpls::FecEntry* fec = ctl.network().lsr(u).fec(v);
      if (!mask.node_alive(u) || !mask.node_alive(v)) {
        EXPECT_EQ(fec, nullptr) << pair;
        continue;
      }
      const mpls::Label default_label =
          plan == RbpcController::LabelPlan::PerPair
              ? ctl.network().lsp(ctl.pair_lsp(u, v)).ingress_label()
              : ctl.network().merged_label(u, v);
      const bool intact = canon[u][v].alive(g, mask);
      const bool on_default =
          fec != nullptr &&
          fec->push == std::vector<mpls::Label>{default_label};
      EXPECT_EQ(on_default, intact) << pair;
      if (!intact && fec != nullptr) ++restored;
    }
  }
  EXPECT_EQ(ctl.pairs_under_restoration(), restored) << ctx;
}

TEST(Controller, ProvisionedPathsAndIntactDefaultsMatchCanonicalSet) {
  // The controller provisions each pair's LSP from its own padded trees
  // and decides "default still intact" by walking them. Both must agree
  // with the oracle-backed CanonicalBaseSet: the provisioned path is the
  // canonical path, and the decision is Path::alive on it, under masks of
  // links and routers, for both metrics and both label plans.
  const std::vector<testing::TopoCase> cases = testing::corpus();
  for (std::size_t c = 0; c < cases.size(); c += 4) {
    const Graph& g = cases[c].g;
    for (const spf::Metric metric :
         {spf::Metric::Hops, spf::Metric::Weighted}) {
      spf::DistanceOracle oracle(g, FailureMask{}, metric);
      CanonicalBaseSet canon_set(oracle);
      graph::PathArena arena;
      std::vector<std::vector<Path>> canon(g.num_nodes(),
                                           std::vector<Path>(g.num_nodes()));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          const graph::PathRef ref = canon_set.base_path_ref(u, v, arena);
          if (u != v && !ref.empty()) canon[u][v] = arena.to_path(g, ref);
        }
      }
      for (const auto plan : {RbpcController::LabelPlan::PerPair,
                              RbpcController::LabelPlan::Merged}) {
        const std::string ctx =
            cases[c].name +
            (metric == spf::Metric::Hops ? " hops" : " weighted") +
            (plan == RbpcController::LabelPlan::PerPair ? " per-pair"
                                                         : " merged");
        RbpcController ctl(g, metric, plan);
        ctl.provision();
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            const mpls::LspId id = ctl.pair_lsp(u, v);
            if (plan == RbpcController::LabelPlan::Merged ||
                canon[u][v].empty()) {
              EXPECT_EQ(id, mpls::kInvalidLsp) << ctx << " " << u << "->" << v;
            } else {
              ASSERT_NE(id, mpls::kInvalidLsp) << ctx << " " << u << "->" << v;
              EXPECT_EQ(ctl.network().lsp(id).path, canon[u][v])
                  << ctx << " " << u << "->" << v;
            }
          }
        }
        expect_intact_defaults(ctl, plan, canon, ctx + " unfailed");

        Rng rng(97 + c);
        for (int round = 0; round < 4; ++round) {
          std::vector<EdgeId> links;
          const std::size_t k = 1 + rng.below(3);
          while (links.size() < k && links.size() < g.num_edges()) {
            const EdgeId e = static_cast<EdgeId>(rng.below(g.num_edges()));
            if (std::find(links.begin(), links.end(), e) == links.end()) {
              links.push_back(e);
            }
          }
          const NodeId router =
              rng.below(2) == 0 ? static_cast<NodeId>(rng.below(g.num_nodes()))
                                : graph::kInvalidNode;
          const std::string round_ctx = ctx + " round " + std::to_string(round);
          for (const EdgeId e : links) {
            ctl.fail_link(e);
            expect_intact_defaults(ctl, plan, canon,
                                   round_ctx + " link " + std::to_string(e));
          }
          if (router != graph::kInvalidNode) {
            ctl.fail_router(router);
            expect_intact_defaults(
                ctl, plan, canon,
                round_ctx + " router " + std::to_string(router));
            ctl.recover_router(router);
            expect_intact_defaults(ctl, plan, canon,
                                   round_ctx + " router recovered");
          }
          // Partial recovery is where a restored pair's path comes back
          // intact while other links are still down.
          for (const EdgeId e : links) {
            ctl.recover_link(e);
            expect_intact_defaults(
                ctl, plan, canon,
                round_ctx + " link " + std::to_string(e) + " recovered");
          }
          EXPECT_EQ(ctl.pairs_under_restoration(), 0u) << round_ctx;
        }
      }
    }
  }
}

// The same invariants on a weighted mesh: every (failure, pair) forwarding
// outcome matches the graph-level shortest path cost.
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
