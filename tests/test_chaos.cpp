// Chaos layer tests: fault-injected control plane, graceful degradation,
// and convergence drills (src/chaos).
//
// The load-bearing suites are the drill matrices: seeded chaos drills over
// the shared 54-topology corpus and over a seeds × loss × fault-shape
// matrix, asserting that during churn nothing crashes, every forwarding
// loop is TTL-guarded (never delivered), and nothing is delivered across
// truth-dead links — and that after quiescence the view has converged to
// the truth and the classic exact invariant (delivered iff connected, at
// min cost) holds again.
//
// This file is also built standalone (rbpc_add_test) so CI can run it
// under TSan and ASan+UBSan directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/chaos_drill.hpp"
#include "chaos/chaos_flood.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/storm.hpp"
#include "core/controller.hpp"
#include "corpus.hpp"
#include "graph/graph.hpp"
#include "spf/metric.hpp"
#include "topo/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rbpc::chaos {
namespace {

using core::DrillActions;
using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

DrillActions chaos_actions(core::RbpcController& ctl) {
  DrillActions a;
  a.fail_link = [&ctl](EdgeId e) { ctl.fail_link(e); };
  a.recover_link = [&ctl](EdgeId e) { ctl.recover_link(e); };
  a.send = [&ctl](NodeId s, NodeId t) { return ctl.send(s, t); };
  a.failures = [&ctl]() -> const FailureMask& { return ctl.failures(); };
  a.set_data_failures = [&ctl](const FailureMask& m) {
    ctl.network().set_failures(m);
  };
  return a;
}

void expect_clean(const ChaosReport& r, const std::string& context) {
  EXPECT_TRUE(r.during_violations.empty())
      << context << ": " << r.during_violations.size()
      << " during-churn violations; first: " << r.during_violations.front();
  EXPECT_TRUE(r.post_violations.empty())
      << context << ": " << r.post_violations.size()
      << " post-quiescence violations; first: " << r.post_violations.front();
  EXPECT_GT(r.transitions, 0u) << context;
}

using LabelPlan = core::RbpcController::LabelPlan;

ChaosReport run_on(const Graph& g, const ChaosDrillConfig& cfg,
                   std::uint64_t seed, bool degrade = true,
                   LabelPlan plan = LabelPlan::PerPair) {
  core::RbpcController ctl(g, spf::Metric::Weighted, plan);
  ctl.set_graceful_degradation(degrade);
  ctl.provision();
  const DrillActions a = chaos_actions(ctl);
  Rng rng(seed);
  return run_chaos_drill(g, spf::Metric::Weighted, a, cfg, rng);
}

// ---------------------------------------------------------------------------
// FaultPlan: keyed-hash determinism.
// ---------------------------------------------------------------------------

TEST(FaultPlan, QueriesAreOrderIndependent) {
  FaultSpec spec;
  spec.lsa_loss = 0.3;
  spec.lsa_jitter = 2.0;
  spec.lsa_dup = 0.2;
  const FaultPlan a(spec, 42);
  const FaultPlan b(spec, 42);

  // Query b in reverse order — answers must match a's exactly.
  std::vector<LsaFate> forward;
  for (std::uint64_t gen = 1; gen <= 50; ++gen) {
    forward.push_back(a.lsa_fate(3, gen, 7));
  }
  for (std::uint64_t gen = 50; gen >= 1; --gen) {
    const LsaFate f = b.lsa_fate(3, gen, 7);
    const LsaFate& w = forward[gen - 1];
    EXPECT_EQ(f.lost, w.lost) << "gen " << gen;
    EXPECT_EQ(f.extra_delay, w.extra_delay) << "gen " << gen;
    EXPECT_EQ(f.duplicated, w.duplicated) << "gen " << gen;
  }
}

TEST(FaultPlan, SeedsAndKeysDecorrelate) {
  FaultSpec spec;
  spec.lsa_loss = 0.5;
  const FaultPlan a(spec, 1);
  const FaultPlan b(spec, 2);
  int differing = 0;
  int lost = 0;
  for (std::uint64_t gen = 1; gen <= 400; ++gen) {
    const bool la = a.lsa_fate(0, gen, 0).lost;
    if (la != b.lsa_fate(0, gen, 0).lost) ++differing;
    if (la) ++lost;
  }
  EXPECT_GT(differing, 100) << "different seeds should disagree often";
  // Loss rate 0.5 over 400 draws: far outside [120, 280] means broken mixing.
  EXPECT_GT(lost, 120);
  EXPECT_LT(lost, 280);
}

TEST(ChaosFlood, FateGatesDeliveries) {
  const Graph g = topo::make_ring(6);
  FaultSpec all_lost;
  all_lost.lsa_loss = 1.0;
  const FaultPlan plan(all_lost, 7);
  FailureMask mask;
  mask.fail_edge(0);
  const ChaosLsaOutcome out =
      chaos_vantage_delivery(g, mask, 0, 1, 0.0, 3, plan, {});
  EXPECT_TRUE(out.primary_lost);
  EXPECT_TRUE(out.deliveries.empty());

  // A vantage cut off from both endpoints is unreachable, not lost.
  const Graph two = [] {
    graph::GraphBuilder b(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    return b.build();
  }();
  const FaultPlan clean(FaultSpec{}, 7);
  const ChaosLsaOutcome cut =
      chaos_vantage_delivery(two, FailureMask{}, 0, 1, 0.0, 3, clean, {});
  EXPECT_TRUE(cut.unreachable);
  EXPECT_TRUE(cut.deliveries.empty());
}

// ---------------------------------------------------------------------------
// Chaos drills.
// ---------------------------------------------------------------------------

ChaosDrillConfig small_config(FaultSpec faults) {
  ChaosDrillConfig cfg;
  cfg.faults = faults;
  cfg.events = 10;
  cfg.event_spacing = 5.0;
  cfg.probes_per_event = 6;
  cfg.quiesce_probes = 40;
  return cfg;
}

FaultSpec jitter_shape(double loss) {
  FaultSpec f;
  f.lsa_loss = loss;
  f.lsa_jitter = 2.0;
  f.lsa_dup = 0.1;
  f.detect_jitter = 0.5;
  f.miss_detect = loss / 2;
  return f;
}

FaultSpec flap_shape(double loss) {
  FaultSpec f;
  f.lsa_loss = loss;
  f.flap_count = 2;
  f.down_dwell = 1.5;
  f.up_dwell = 1.5;
  f.dwell_jitter = 0.5;
  return f;
}

TEST(ChaosDrill, NoFaultsConvergesExactly) {
  const Graph g = topo::make_ring(9);
  const ChaosReport r = run_on(
      g, small_config(FaultSpec{}), 11, /*degrade=*/false);
  expect_clean(r, "ring9/no-faults");
  EXPECT_EQ(r.lsa_lost, 0u);
  EXPECT_EQ(r.lsa_missed, 0u);
  EXPECT_FALSE(r.partitioned);
  // With no loss every transition's LSA is applied exactly once.
  EXPECT_EQ(r.lsa_applied, r.transitions);
}

TEST(ChaosDrill, CorpusSweepUnderMixedFaults) {
  // One seeded drill per corpus topology under a mixed fault shape; the
  // per-topology seed is fixed so failures reproduce.
  std::uint64_t seed = 100;
  for (const testing::TopoCase& tc : testing::corpus()) {
    ChaosDrillConfig cfg = small_config(jitter_shape(0.05));
    cfg.events = 6;
    cfg.probes_per_event = 4;
    cfg.quiesce_probes = 25;
    const ChaosReport r = run_on(tc.g, cfg, seed++);
    expect_clean(r, tc.name);
  }
}

TEST(ChaosDrill, SeedLossShapeMatrix) {
  // The acceptance matrix: >= 20 seeds x loss {0, 1%, 10%} x two fault
  // shapes (jitter-heavy, flap-heavy). Zero post-quiescence violations and
  // zero un-TTL-guarded loops demanded throughout (the drill reports a
  // delivered looping packet as a during-churn violation).
  const Graph g = topo::make_ring(9);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (double loss : {0.0, 0.01, 0.1}) {
      for (int shape = 0; shape < 2; ++shape) {
        const FaultSpec f = shape == 0 ? jitter_shape(loss) : flap_shape(loss);
        const ChaosReport r =
            run_on(g, small_config(f), 500 + seed);
        expect_clean(r, "ring9 seed " + std::to_string(seed) + " loss " +
                            std::to_string(loss) +
                            (shape == 0 ? " jitter" : " flap"));
      }
    }
  }
}

TEST(ChaosDrill, MergedControllerSurvivesChaos) {
  const Graph g = topo::make_grid(4, 5);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const ChaosReport r =
        run_on(g, small_config(jitter_shape(0.1)), 900 + seed,
               /*degrade=*/true, LabelPlan::Merged);
    expect_clean(r, "grid4x5/merged seed " + std::to_string(seed));
  }
}

TEST(ChaosDrill, IdenticalSeedsYieldIdenticalTraces) {
  const Graph g = topo::make_grid(4, 5);
  const ChaosDrillConfig cfg = small_config(jitter_shape(0.1));
  const ChaosReport a = run_on(g, cfg, 77);
  const ChaosReport b = run_on(g, cfg, 77);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.lsa_applied, b.lsa_applied);
  EXPECT_EQ(a.lsa_lost, b.lsa_lost);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.max_staleness, b.max_staleness);

  const ChaosReport c = run_on(g, cfg, 78);
  EXPECT_NE(a.trace, c.trace) << "different seeds must differ";
}

/// FNV-1a over the bytes fed to it: a compact fingerprint of replay output.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(const std::string& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
  void stream(const std::vector<StormEvent>& events) {
    u64(events.size());
    for (const StormEvent& e : events) {
      f64(e.at);
      u64(e.event.edge);
      u64(e.event.up ? 1 : 0);
      u64(e.event.generation);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

TEST(ChaosDrill, DrillsAndStormsMatchAPinnedDigest) {
  // Byte-identical replay, pinned: one digest over seeds x {jitter, flap}
  // fault shapes x two graphs, covering each drill's trace, event and
  // transition counts, and plan_storm's truth and delivery streams. The
  // expected value is a recording, so any change to how the planners draw
  // from the RNG, order transitions or apply delivery fates shows up here
  // even when every invariant still holds.
  const Graph ring = topo::make_ring(9);
  const Graph grid = topo::make_grid(4, 5);
  Digest digest;
  for (const Graph* g : {&ring, &grid}) {
    for (int shape = 0; shape < 2; ++shape) {
      const FaultSpec f = shape == 0 ? jitter_shape(0.1) : flap_shape(0.1);
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const ChaosReport r = run_on(*g, small_config(f), 300 + seed);
        digest.u64(r.events);
        digest.u64(r.transitions);
        digest.u64(r.trace.size());
        for (const std::string& line : r.trace) digest.str(line);

        StormConfig config;
        config.faults = f;
        config.events = 12;
        Rng rng(300 + seed);
        const Storm storm = plan_storm(*g, config, rng);
        digest.stream(storm.truth);
        digest.stream(storm.deliveries);
        digest.u64(storm.lost);
        digest.u64(storm.duplicated);
      }
    }
  }
  EXPECT_EQ(digest.value(), 11893881165920784824ull);
}

TEST(ChaosDrill, RequiresTruthHook) {
  const Graph g = topo::make_ring(4);
  core::RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  DrillActions a = chaos_actions(ctl);
  a.set_data_failures = nullptr;
  Rng rng(1);
  EXPECT_THROW(
      run_chaos_drill(g, spf::Metric::Weighted, a, ChaosDrillConfig{}, rng),
      PreconditionError);
}

// ---------------------------------------------------------------------------
// Graceful degradation ladder (unit level).
// ---------------------------------------------------------------------------

Graph chain3() {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  return b.build();
}

TEST(Degradation, StaleChainRetainedAndRevisited) {
  const Graph g = chain3();
  core::RbpcController ctl(g, spf::Metric::Weighted);
  ctl.set_graceful_degradation(true);
  ctl.provision();

  // The controller believes link 1 died; 0->2 has no alternate route, so
  // rung 3 retains the stale chain instead of clearing the FEC entry.
  ctl.fail_link(1);
  // Every pair whose chain crossed link 1: 0->2, 2->0, 1->2, 2->1.
  EXPECT_EQ(ctl.degrade_stats().degraded_pairs, 4u);
  EXPECT_GE(ctl.degrade_stats().stale_fec, 4u);

  // Ground truth: the link is actually fine (the view is stale). The
  // retained chain keeps forwarding.
  ctl.network().set_failures(FailureMask{});
  EXPECT_TRUE(ctl.send(0, 2).delivered());

  // Ground truth agrees with the view: the stale chain drops at the dead
  // link — a drop and a count, never a crash.
  FailureMask down;
  down.fail_edge(1);
  ctl.network().set_failures(down);
  const mpls::ForwardResult r = ctl.send(0, 2);
  EXPECT_FALSE(r.delivered());
  EXPECT_EQ(r.status, mpls::ForwardStatus::LinkDown);

  // Recovery reroutes the retained pair back to the default chain.
  ctl.recover_link(1);
  EXPECT_EQ(ctl.degrade_stats().degraded_pairs, 0u);
  EXPECT_TRUE(ctl.send(0, 2).delivered());
}

TEST(Degradation, WithoutLadderThePairBreaks) {
  const Graph g = chain3();
  core::RbpcController ctl(g, spf::Metric::Weighted);
  ctl.provision();
  EXPECT_FALSE(ctl.graceful_degradation());

  ctl.fail_link(1);
  EXPECT_EQ(ctl.degrade_stats().degraded_pairs, 0u);
  EXPECT_GE(ctl.degrade_stats().no_route, 4u);
  const mpls::ForwardResult r = ctl.send(0, 2);
  EXPECT_FALSE(r.delivered());
  EXPECT_EQ(r.status, mpls::ForwardStatus::NoFecEntry);
  EXPECT_THROW(ctl.send_or_throw(0, 2), NoRouteError);

  // Reachable pairs still answer through send_or_throw.
  EXPECT_TRUE(ctl.send_or_throw(0, 1).delivered());
}

TEST(Degradation, MergedControllerLadderMirrors) {
  const Graph g = chain3();
  core::RbpcController ctl(g, spf::Metric::Weighted, LabelPlan::Merged);
  ctl.set_graceful_degradation(true);
  ctl.provision();

  ctl.fail_link(1);
  EXPECT_EQ(ctl.degrade_stats().degraded_pairs, 4u);
  ctl.network().set_failures(FailureMask{});
  EXPECT_TRUE(ctl.send(0, 2).delivered());

  ctl.recover_link(1);
  EXPECT_EQ(ctl.degrade_stats().degraded_pairs, 0u);
  EXPECT_TRUE(ctl.send(0, 2).delivered());

  core::RbpcController strict(g, spf::Metric::Weighted, LabelPlan::Merged);
  strict.provision();
  strict.fail_link(1);
  EXPECT_THROW(strict.send_or_throw(0, 2), NoRouteError);
}

TEST(Degradation, ChaosDrillExercisesTheLadder) {
  // On a bridge-heavy topology (comb teeth hang off a spine), chaos churn
  // with degradation enabled must still satisfy both invariant regimes,
  // and the ladder counters should register activity.
  const Graph g = topo::make_comb(4).g;
  ChaosDrillConfig cfg = small_config(jitter_shape(0.1));
  cfg.max_concurrent = 2;
  const ChaosReport r = run_on(g, cfg, 1234);
  expect_clean(r, "comb4/ladder");
}

}  // namespace
}  // namespace rbpc::chaos
