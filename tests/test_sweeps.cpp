// Parameterized cross-topology sweeps: the paper's key empirical claims
// checked as properties on every generator family, plus end-to-end
// controller sweeps.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/base_set.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "core/restoration.hpp"
#include "core/scenario.hpp"
#include "graph/analysis.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace rbpc::core {
namespace {

using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

/// Named topology factory for the sweeps.
struct TopoCase {
  std::string name;
  Graph (*make)(Rng& rng);
  spf::Metric metric;
};

// Without a printer gtest lists the parameter as a raw byte dump, which
// holds the string's heap pointer and so gives the test a different name
// on every run.
void PrintTo(const TopoCase& tc, std::ostream* os) { *os << tc.name; }

Graph make_isp(Rng& rng) { return topo::make_isp_like(rng); }
Graph make_as_small(Rng& rng) { return topo::make_as_like(rng, 0.05); }
Graph make_waxman_t(Rng& rng) { return topo::make_waxman(120, 0.7, 0.25, rng); }
Graph make_mesh(Rng& rng) {
  return topo::make_random_connected(80, 200, rng, 12);
}
Graph make_grid_t(Rng& rng) {
  (void)rng;
  return topo::make_grid(9, 9);
}

const TopoCase kTopoCases[] = {
    {"isp", make_isp, spf::Metric::Weighted},
    {"as", make_as_small, spf::Metric::Hops},
    {"waxman", make_waxman_t, spf::Metric::Hops},
    {"mesh", make_mesh, spf::Metric::Weighted},
    {"grid", make_grid_t, spf::Metric::Hops},
};

class TopologySweep : public ::testing::TestWithParam<TopoCase> {};

// Table-2-style invariants hold on every topology family.
TEST_P(TopologySweep, SingleFailurePcLengthStaysNearTwo) {
  const TopoCase& tc = GetParam();
  Rng rng(11);
  const Graph g = tc.make(rng);
  Table2Config cfg;
  cfg.samples = 25;
  cfg.seed = 13;
  cfg.metric = tc.metric;
  const Table2Row row = run_table2(g, FailureClass::OneLink, cfg);
  if (row.restored == 0) GTEST_SKIP() << "no restorable cases";
  // The paper's headline: around two base paths per restoration; the
  // theorems cap single-failure cases at 2 paths + 1 edge.
  EXPECT_GE(row.avg_pc_length, 1.0);
  EXPECT_LE(row.avg_pc_length, 2.6) << tc.name;
  EXPECT_LE(row.max_pc_length, 3u) << tc.name;
  EXPECT_GE(row.length_stretch, 1.0) << tc.name;
}

TEST_P(TopologySweep, RestorationIsAlwaysOptimalAndCovered) {
  const TopoCase& tc = GetParam();
  Rng rng(17);
  const Graph g = tc.make(rng);
  spf::DistanceOracle oracle(g, FailureMask{}, tc.metric, 64);
  CanonicalBaseSet base(oracle);
  Rng sample_rng(19);
  int evaluated = 0;
  for (int trial = 0; trial < 40 && evaluated < 25; ++trial) {
    const SamplePair pair = sample_pair(oracle, sample_rng);
    for (const auto& sc :
         scenarios_for(pair, FailureClass::OneLink, sample_rng, 4)) {
      const Restoration r = source_rbpc_restore(base, pair.src, pair.dst,
                                                sc.mask);
      const auto want = spf::distance(g, pair.src, pair.dst, sc.mask,
                                      spf::SpfOptions{.metric = tc.metric});
      if (want == graph::kUnreachable) {
        EXPECT_FALSE(r.restored());
        continue;
      }
      ++evaluated;
      ASSERT_TRUE(r.restored());
      // Restoration quality is never compromised: the backup is min-cost.
      graph::Weight cost = 0;
      for (auto e : r.backup.edges()) {
        cost += spf::metric_weight(g, e, tc.metric);
      }
      EXPECT_EQ(cost, want) << tc.name;
      // And the decomposition reassembles it exactly from surviving pieces.
      EXPECT_EQ(r.decomposition.joined(), r.backup);
      for (const auto& piece : r.decomposition.pieces) {
        EXPECT_TRUE(piece.alive(g, sc.mask));
      }
    }
  }
  EXPECT_GT(evaluated, 0);
}

TEST_P(TopologySweep, BypassDistributionIsShortTailed) {
  const TopoCase& tc = GetParam();
  Rng rng(23);
  const Graph g = tc.make(rng);
  Table3Config cfg;
  cfg.metric = tc.metric;
  cfg.max_links = 300;
  cfg.seed = 29;
  const Table3Result res = run_table3(g, cfg);
  if (res.hopcount.empty()) GTEST_SKIP();
  // The paper's consequence: bypasses are overwhelmingly short. Grids are
  // the worst of our families (no triangles, bypass = 3); everything stays
  // within a small constant.
  std::uint64_t within5 = 0;
  for (std::int64_t h = 1; h <= 5; ++h) within5 += res.hopcount.count(h);
  EXPECT_GT(static_cast<double>(within5) /
                static_cast<double>(res.hopcount.total()),
            0.6)
      << tc.name;
}

INSTANTIATE_TEST_SUITE_P(Families, TopologySweep,
                         ::testing::ValuesIn(kTopoCases),
                         [](const ::testing::TestParamInfo<TopoCase>& info) {
                           return info.param.name;
                         });

// End-to-end controller sweep on medium topologies (kept separate from the
// per-case sweep to bound runtime: provisioning is O(n^2)).
TEST(ControllerSweep, WaxmanEndToEnd) {
  Rng rng(31);
  const Graph g = topo::make_waxman(60, 0.7, 0.3, rng);
  RbpcController ctl(g, spf::Metric::Hops);
  ctl.provision();
  for (int round = 0; round < 3; ++round) {
    const auto e = static_cast<graph::EdgeId>(rng.below(g.num_edges()));
    if (ctl.failures().edge_failed(e)) continue;
    ctl.fail_link(e);
    for (int probe = 0; probe < 60; ++probe) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
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
    ctl.recover_link(e);
  }
}

}  // namespace
}  // namespace rbpc::core
