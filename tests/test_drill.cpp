// Integration fuzz: randomized fail/recover/patch churn against both
// controller label plans, with the data-plane invariant checked after every
// event (core/drill.hpp).
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/drill.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::core {
namespace {

using graph::EdgeId;
using graph::Graph;

DrillActions actions_for(RbpcController& ctl, bool with_patch,
                         bool with_routers = false) {
  DrillActions a;
  a.fail_link = [&ctl](EdgeId e) { ctl.fail_link(e); };
  a.recover_link = [&ctl](EdgeId e) { ctl.recover_link(e); };
  if (with_routers) {
    a.fail_router = [&ctl](graph::NodeId v) { ctl.fail_router(v); };
    a.recover_router = [&ctl](graph::NodeId v) { ctl.recover_router(v); };
  }
  if (with_patch) {
    a.local_patch = [&ctl](EdgeId e) {
      ctl.local_patch(e, RbpcController::LocalMode::EndRoute);
    };
  }
  a.send = [&ctl](graph::NodeId s, graph::NodeId t) { return ctl.send(s, t); };
  a.failures = [&ctl]() -> const graph::FailureMask& { return ctl.failures(); };
  return a;
}

void expect_clean(const DrillReport& report) {
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations; first: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_GT(report.events, 0u);
  EXPECT_GT(report.delivered, 0u);
}

TEST(Drill, PerLspControllerSurvivesChurnOnRing) {
  const Graph g = topo::make_ring(10);
  RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();
  Rng rng(201);
  DrillConfig cfg;
  cfg.steps = 60;
  expect_clean(run_failure_drill(g, spf::Metric::Hops,
                                 actions_for(ctl, false), cfg, rng));
}

TEST(Drill, PerLspControllerSurvivesChurnOnMesh) {
  Rng topo_rng(203);
  const Graph g = topo::make_random_connected(24, 60, topo_rng, 8);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  Rng rng(205);
  DrillConfig cfg;
  cfg.steps = 40;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, false), cfg, rng));
}

TEST(Drill, PerLspControllerWithLocalPatches) {
  Rng topo_rng(207);
  const Graph g = topo::make_random_connected(20, 50, topo_rng, 5);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  Rng rng(209);
  DrillConfig cfg;
  cfg.steps = 40;
  cfg.patch_chance = 1.0;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, true), cfg, rng));
}

TEST(Drill, MergedControllerSurvivesChurn) {
  Rng topo_rng(211);
  const Graph g = topo::make_random_connected(22, 55, topo_rng, 7);
  RbpcController ctl(g, spf::Metric::Weighted,
                     RbpcController::LabelPlan::Merged);
  ctl.provision();
  Rng rng(213);
  DrillConfig cfg;
  cfg.steps = 40;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, false), cfg, rng));
}

TEST(Drill, MergedControllerWithLocalPatches) {
  Rng topo_rng(215);
  const Graph g = topo::make_random_connected(18, 44, topo_rng, 6);
  RbpcController ctl(g, spf::Metric::Weighted,
                     RbpcController::LabelPlan::Merged);
  ctl.provision();
  Rng rng(217);
  DrillConfig cfg;
  cfg.steps = 30;
  cfg.patch_chance = 1.0;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, true), cfg, rng));
}

TEST(Drill, PerLspControllerWithRouterFailures) {
  Rng topo_rng(221);
  const Graph g = topo::make_random_connected(20, 55, topo_rng, 6);
  RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  Rng rng(223);
  DrillConfig cfg;
  cfg.steps = 35;
  cfg.router_chance = 0.4;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, false, true), cfg, rng));
}

TEST(Drill, MergedControllerWithRouterFailures) {
  Rng topo_rng(227);
  const Graph g = topo::make_random_connected(18, 48, topo_rng, 5);
  RbpcController ctl(g, spf::Metric::Weighted,
                     RbpcController::LabelPlan::Merged);
  ctl.provision();
  Rng rng(229);
  DrillConfig cfg;
  cfg.steps = 30;
  cfg.router_chance = 0.4;
  expect_clean(run_failure_drill(g, spf::Metric::Weighted,
                                 actions_for(ctl, false, true), cfg, rng));
}

TEST(Drill, PlannedControllerSurvivesChurn) {
  const Graph g = topo::make_ring(9);
  for (const auto plan : {RbpcController::LabelPlan::PerPair,
                          RbpcController::LabelPlan::Merged}) {
    RbpcController ctl(g, spf::Metric::Hops, plan);
    ctl.provision();
    for (EdgeId e = 0; e < g.num_edges(); ++e) ctl.precompute_plan(e);
    Rng rng(219);
    DrillConfig cfg;
    cfg.steps = 50;
    expect_clean(run_failure_drill(g, spf::Metric::Hops,
                                   actions_for(ctl, false), cfg, rng));
  }
}

TEST(Drill, RequiresHooks) {
  const Graph g = topo::make_ring(4);
  Rng rng(1);
  EXPECT_THROW(
      run_failure_drill(g, spf::Metric::Hops, DrillActions{}, DrillConfig{},
                        rng),
      PreconditionError);
}

}  // namespace
}  // namespace rbpc::core
