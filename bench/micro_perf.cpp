// Micro-benchmarks (google-benchmark): the operations on RBPC's fast path.
//
// These are engineering evidence, not a paper artifact: they quantify the
// claim that restoration is cheap (FEC rewrite + label push) compared to
// re-provisioning, and measure the substrate primitives.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "core/base_set.hpp"
#include "core/controller.hpp"
#include "core/decompose.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "spf/bypass.hpp"
#include "spf/incremental.hpp"
#include "spf/oracle.hpp"
#include "spf/replacement.hpp"
#include "spf/spf.hpp"
#include "spf/tree_cache.hpp"
#include "spf/workspace.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

// Heap allocations counted so far by the program-wide operator new
// replacement in alloc_counter.cpp.
std::uint64_t heap_allocs();

namespace {

using namespace rbpc;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;

const Graph& isp_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return topo::make_isp_like(rng, true);
  }();
  return g;
}

const Graph& as_graph() {
  static const Graph g = [] {
    Rng rng(2);
    return topo::make_as_like(rng, 1.0);
  }();
  return g;
}

void BM_DijkstraIsp(benchmark::State& state) {
  const Graph& g = isp_graph();
  Rng rng(3);
  for (auto _ : state) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    benchmark::DoNotOptimize(spf::shortest_tree(g, s));
  }
}
BENCHMARK(BM_DijkstraIsp);

void BM_DijkstraAsGraph(benchmark::State& state) {
  const Graph& g = as_graph();
  Rng rng(4);
  for (auto _ : state) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    benchmark::DoNotOptimize(
        spf::shortest_tree(g, s, FailureMask::none(),
                           spf::SpfOptions{.metric = spf::Metric::Hops}));
  }
}
BENCHMARK(BM_DijkstraAsGraph);

void BM_PaddedDijkstraIsp(benchmark::State& state) {
  const Graph& g = isp_graph();
  Rng rng(5);
  for (auto _ : state) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    benchmark::DoNotOptimize(spf::shortest_tree(
        g, s, FailureMask::none(), spf::SpfOptions{.padded = true}));
  }
}
BENCHMARK(BM_PaddedDijkstraIsp);

// --- Incremental repair vs from-scratch SPF under a single link failure ---
//
// The restoration hot path: a link fails, every affected source needs its
// post-failure tree. Scratch re-runs Dijkstra over the whole graph; repair
// re-relaxes only the orphaned subtrees of the cached unfailed tree. Both
// benchmarks cycle through the same pre-generated (source, failed-edge)
// scenarios, so their per-iteration times are directly comparable.

struct RepairScenario {
  NodeId source;
  spf::ShortestPathTree base;
  FailureMask mask;
};

const std::vector<RepairScenario>& isp_failure_scenarios() {
  static const std::vector<RepairScenario> scenarios = [] {
    const Graph& g = isp_graph();
    Rng rng(12);
    std::vector<RepairScenario> out;
    for (int i = 0; i < 32; ++i) {
      const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
      spf::ShortestPathTree base = spf::shortest_tree(
          g, s, FailureMask::none(), spf::SpfOptions{.padded = true});
      FailureMask mask;
      mask.fail_edge(static_cast<graph::EdgeId>(rng.below(g.num_edges())));
      out.push_back(RepairScenario{s, std::move(base), std::move(mask)});
    }
    return out;
  }();
  return scenarios;
}

void BM_SpfScratchSingleFailureIsp(benchmark::State& state) {
  const Graph& g = isp_graph();
  const auto& scenarios = isp_failure_scenarios();
  spf::SpfWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    const RepairScenario& sc = scenarios[i++ % scenarios.size()];
    benchmark::DoNotOptimize(spf::shortest_tree(
        g, sc.source, sc.mask, spf::SpfOptions{.padded = true}, ws));
  }
}
BENCHMARK(BM_SpfScratchSingleFailureIsp);

void BM_SpfRepairSingleFailureIsp(benchmark::State& state) {
  const Graph& g = isp_graph();
  const auto& scenarios = isp_failure_scenarios();
  spf::SpfWorkspace ws;
  std::size_t i = 0;
  for (auto _ : state) {
    const RepairScenario& sc = scenarios[i++ % scenarios.size()];
    benchmark::DoNotOptimize(spf::repair_tree(
        g, sc.base, sc.mask, spf::SpfOptions{.padded = true}, ws));
  }
}
BENCHMARK(BM_SpfRepairSingleFailureIsp);

// --- The single-failure rung vs repair -------------------------------------
//
// The service's k = 1 reroute: one (s, t) demand, one failed link on its
// canonical path. Repair rebuilds s's tree under the mask and extracts the
// path to t; the cut scan reads the route off s's and t's unfailed trees.
// Both cycle through the same fixed (s, t, e) set, with the service's flavor
// (padded hops, arbitrary tiebreak), and both end with the route as a Path.
// The cut scan runs on the AS graph and on the ISP graph (the isp_flap
// workload's topology), each over 32 queries built the same way. A third
// AS set fails the first link of each canonical path instead, the tail
// case where the link cuts almost all of s's tree off and only t's side
// of the cut is small.

struct CutScenario {
  spf::ShortestPathTree from_s;
  spf::ShortestPathTree from_t;
  graph::EdgeId failed;
};

constexpr spf::SpfOptions kServiceFlavor{.metric = spf::Metric::Hops,
                                         .padded = true};

/// Which link of canonical(s, t) a cut scenario fails.
enum class CutLink { kRandom, kFirst };

/// 32 fixed (s, t, e) queries on `g`: random distinct s and t, and a link
/// of their canonical path, random or the first one.
std::vector<CutScenario> make_cut_scenarios(const Graph& g, CutLink link) {
  Rng rng(13);
  std::vector<CutScenario> out;
  while (out.size() < 32) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    spf::ShortestPathTree from_s =
        spf::shortest_tree(g, s, FailureMask::none(), kServiceFlavor);
    const graph::Path path = from_s.path_to(g, t);
    // Drawn either way, so both link choices see the same (s, t) pairs.
    const std::size_t hop = rng.below(path.hops());
    const graph::EdgeId e = path.edge(link == CutLink::kFirst ? 0 : hop);
    out.push_back(CutScenario{
        std::move(from_s),
        spf::shortest_tree(g, t, FailureMask::none(), kServiceFlavor), e});
  }
  return out;
}

const std::vector<CutScenario>& as_cut_scenarios() {
  static const std::vector<CutScenario> scenarios =
      make_cut_scenarios(as_graph(), CutLink::kRandom);
  return scenarios;
}

const std::vector<CutScenario>& as_near_source_cut_scenarios() {
  static const std::vector<CutScenario> scenarios =
      make_cut_scenarios(as_graph(), CutLink::kFirst);
  return scenarios;
}

const std::vector<CutScenario>& isp_cut_scenarios() {
  static const std::vector<CutScenario> scenarios =
      make_cut_scenarios(isp_graph(), CutLink::kRandom);
  return scenarios;
}

void BM_SpfRepairSingleFailureAs(benchmark::State& state) {
  const Graph& g = as_graph();
  const auto& scenarios = as_cut_scenarios();
  spf::SpfWorkspace ws;
  spf::ShortestPathTree repaired;
  std::size_t i = 0;
  for (auto _ : state) {
    const CutScenario& sc = scenarios[i++ % scenarios.size()];
    spf::repair_tree_into(g, sc.from_s, FailureMask::of_edges({sc.failed}),
                          kServiceFlavor, ws, repaired);
    benchmark::DoNotOptimize(repaired.path_to(g, sc.from_t.source()));
  }
}
BENCHMARK(BM_SpfRepairSingleFailureAs);

void run_cut_routes(benchmark::State& state, const Graph& g,
                    const std::vector<CutScenario>& scenarios) {
  spf::SpfWorkspace ws;
  graph::Path route;
  std::size_t i = 0;
  std::size_t unproven = 0;
  for (auto _ : state) {
    const CutScenario& sc = scenarios[i++ % scenarios.size()];
    unproven += spf::replacement_route(g, sc.from_s, sc.from_t, sc.failed, ws,
                                       route) ==
                spf::ReplacementKind::kUnproven;
    benchmark::DoNotOptimize(route);
  }
  state.counters["unproven"] = static_cast<double>(unproven);
}

void BM_CutRouteAs(benchmark::State& state) {
  run_cut_routes(state, as_graph(), as_cut_scenarios());
}
BENCHMARK(BM_CutRouteAs);

void BM_CutRouteAsNearSource(benchmark::State& state) {
  run_cut_routes(state, as_graph(), as_near_source_cut_scenarios());
}
BENCHMARK(BM_CutRouteAsNearSource);

void BM_CutRouteIsp(benchmark::State& state) {
  run_cut_routes(state, isp_graph(), isp_cut_scenarios());
}
BENCHMARK(BM_CutRouteIsp);

// --- The cut rung on the as_flap event mix --------------------------------
//
// BM_CutRouteAs draws its 32 (s, t, e) queries uniformly; the service sees
// something else. perfbench's as_flap fails links by load (a link is hit
// with probability proportional to the sum of 1/hops over the demands
// routed across it), and every demand on the failed link reroutes, so
// the rung mostly runs for hub links and the long-haul demands across
// them. This set is drawn the same way: perfbench's AS stand-in and 2,000
// demands (input seed 1), canonical routes in the service's flavor, 24
// links drawn by systematic sampling on their load, and as queries every
// demand whose canonical route uses a drawn link (a link drawn twice
// counts twice, as in the event script). The trees come from one shared
// unfailed TreeCache, as in the service; the greedy benchmark below
// decomposes the rung's routes against the same store.

struct LoadedAs {
  Graph g;
  std::unique_ptr<spf::TreeCache> store;
  struct Query {
    std::shared_ptr<const spf::ShortestPathTree> from_s;
    std::shared_ptr<const spf::ShortestPathTree> from_t;
    graph::EdgeId failed;
  };
  std::vector<Query> queries;
  std::vector<graph::Path> routes;  ///< the rung's answers (kCut only)
};

const LoadedAs& loaded_as() {
  static const LoadedAs loaded = [] {
    LoadedAs out;
    Rng topo_rng(1);
    out.g = topo::make_as_like(topo_rng);
    const Graph& g = out.g;
    Rng demand_rng(2);
    std::vector<std::pair<NodeId, NodeId>> demands;
    while (demands.size() < 2000) {
      const auto s = static_cast<NodeId>(demand_rng.below(g.num_nodes()));
      const auto t = static_cast<NodeId>(demand_rng.below(g.num_nodes()));
      if (s != t) demands.emplace_back(s, t);
    }
    // Canonical routes, one scratch tree per source at a time.
    std::map<NodeId, std::vector<std::size_t>> by_source;
    for (std::size_t d = 0; d < demands.size(); ++d) {
      by_source[demands[d].first].push_back(d);
    }
    std::vector<std::vector<graph::EdgeId>> routes(demands.size());
    for (const auto& [s, ds] : by_source) {
      const spf::ShortestPathTree tree =
          spf::shortest_tree(g, s, FailureMask::none(), kServiceFlavor);
      for (const std::size_t d : ds) {
        if (tree.reachable(demands[d].second)) {
          routes[d] = tree.path_to(g, demands[d].second).edges();
        }
      }
    }
    std::vector<double> weight(g.num_edges(), 0.0);
    std::vector<std::vector<std::size_t>> on_edge(g.num_edges());
    double total = 0.0;
    for (std::size_t d = 0; d < demands.size(); ++d) {
      for (const graph::EdgeId e : routes[d]) {
        weight[e] += 1.0 / static_cast<double>(routes[d].size());
        on_edge[e].push_back(d);
      }
      if (!routes[d].empty()) total += 1.0;
    }
    Rng rng(1 ^ 0x5EEDF00DCAFEULL);
    std::vector<graph::EdgeId> order;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (weight[e] > 0.0) order.push_back(e);
    }
    rng.shuffle(order);
    constexpr std::size_t kLinks = 24;
    const double step = total / static_cast<double>(kLinks);
    double next = rng.uniform() * step, cum = 0.0;
    std::vector<graph::EdgeId> picks;
    for (const graph::EdgeId e : order) {
      cum += weight[e];
      for (; next < cum && picks.size() < kLinks; next += step) {
        picks.push_back(e);
      }
    }
    out.store = std::make_unique<spf::TreeCache>(g, FailureMask{},
                                                 kServiceFlavor);
    spf::SpfWorkspace ws;
    for (const graph::EdgeId e : picks) {
      for (const std::size_t d : on_edge[e]) {
        LoadedAs::Query q{out.store->tree(demands[d].first),
                          out.store->tree(demands[d].second), e};
        graph::Path route;
        if (spf::replacement_route(g, *q.from_s, *q.from_t, e, ws, route) ==
            spf::ReplacementKind::kCut) {
          out.routes.push_back(std::move(route));
        }
        out.queries.push_back(std::move(q));
      }
    }
    return out;
  }();
  return loaded;
}

void BM_CutRouteAsLoaded(benchmark::State& state) {
  const LoadedAs& loaded = loaded_as();
  spf::SpfWorkspace ws;
  graph::Path route;
  std::size_t i = 0;
  std::size_t unproven = 0;
  for (auto _ : state) {
    const LoadedAs::Query& q = loaded.queries[i++ % loaded.queries.size()];
    unproven += spf::replacement_route(loaded.g, *q.from_s, *q.from_t,
                                       q.failed, ws, route) ==
                spf::ReplacementKind::kUnproven;
    benchmark::DoNotOptimize(route);
  }
  state.counters["queries"] = static_cast<double>(loaded.queries.size());
  state.counters["unproven"] = static_cast<double>(unproven);
}
BENCHMARK(BM_CutRouteAsLoaded);

void BM_SourceRbpcRestore(benchmark::State& state) {
  const Graph& g = isp_graph();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  core::AllPairsShortestBaseSet base(oracle);
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    const graph::Path lsp = oracle.canonical_path(s, t);
    if (s == t || lsp.hops() < 1) {
      state.ResumeTiming();
      continue;
    }
    FailureMask mask;
    mask.fail_edge(lsp.edge(rng.below(lsp.hops())));
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::source_rbpc_restore(base, s, t, mask));
  }
}
BENCHMARK(BM_SourceRbpcRestore);

/// The zero-allocation gate: records `allocs` (the counter delta around a
/// measured loop) and fails the benchmark when it is nonzero — or when one
/// known allocation does not move the counter, since a hook that stopped
/// counting would read zero for every loop.
void gate_zero_allocs(benchmark::State& state, std::uint64_t allocs,
                      const char* failure) {
  state.counters["heap_allocs"] = static_cast<double>(allocs);
  const std::uint64_t before = heap_allocs();
  void* probe = ::operator new(1);
  benchmark::DoNotOptimize(probe);
  ::operator delete(probe);
  if (heap_allocs() == before) {
    state.SkipWithError("allocation hook did not count a known allocation");
  } else if (allocs != 0) {
    state.SkipWithError(failure);
  }
}

void BM_ArenaRestoreZeroAlloc(benchmark::State& state) {
  // The allocation-free hot path (DESIGN.md §11): after one warm-up pass
  // sizes the scratch to its high-water mark, restoring any of the fixed
  // scenarios must perform zero heap allocations. The operator-new hook in
  // alloc_counter.cpp counts; any allocation in the measured loop fails the
  // benchmark (SkipWithError -> "ERROR OCCURRED" in the output, gated in
  // CI).
  const Graph& g = isp_graph();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  core::AllPairsShortestBaseSet base(oracle);
  struct Case {
    NodeId s;
    NodeId t;
    FailureMask mask;
  };
  Rng rng(13);
  std::vector<Case> cases;
  while (cases.size() < 16) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const graph::Path lsp = oracle.canonical_path(s, t);
    if (lsp.hops() < 1) continue;
    FailureMask mask;
    mask.fail_edge(lsp.edge(rng.below(lsp.hops())));
    cases.push_back(Case{s, t, std::move(mask)});
  }
  core::RestoreScratch scratch;
  // Warm-up: every scenario once, so the scratch arrays, the arena and the
  // oracle's tree cache reach steady state before counting starts.
  for (const Case& c : cases) {
    core::source_rbpc_restore_into(base, c.s, c.t, c.mask, scratch);
  }
  const std::uint64_t before = heap_allocs();
  std::size_t i = 0;
  for (auto _ : state) {
    const Case& c = cases[i++ % cases.size()];
    core::source_rbpc_restore_into(base, c.s, c.t, c.mask, scratch);
    benchmark::DoNotOptimize(scratch.backup);
  }
  gate_zero_allocs(state, heap_allocs() - before,
                   "warm restoration allocated on the heap");
}
BENCHMARK(BM_ArenaRestoreZeroAlloc);

void BM_GreedyDecompose(benchmark::State& state) {
  const Graph& g = isp_graph();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  core::AllPairsShortestBaseSet base(oracle);
  // A fixed long restoration route.
  Rng rng(7);
  graph::Path backup;
  while (backup.hops() < 4) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const graph::Path lsp = oracle.canonical_path(s, t);
    if (lsp.hops() < 4) continue;
    FailureMask mask;
    mask.fail_edge(lsp.edge(1));
    backup = spf::shortest_path(g, s, t, mask, spf::SpfOptions{.padded = true});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_decompose(base, backup));
  }
}
BENCHMARK(BM_GreedyDecompose);

void BM_GreedyDecomposeSharedAs(benchmark::State& state) {
  // The service's greedy cover: SharedCanonicalBaseSet over the shared
  // unfailed store, on the cut rung's routes of the as_flap event mix
  // (BM_CutRouteAsLoaded). One pass before timing builds every piece
  // start's tree, so the loop measures the warm cover.
  const LoadedAs& loaded = loaded_as();
  core::SharedCanonicalBaseSet base(*loaded.store);
  for (const graph::Path& route : loaded.routes) {
    benchmark::DoNotOptimize(core::greedy_decompose(base, route));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const graph::Path& route = loaded.routes[i++ % loaded.routes.size()];
    benchmark::DoNotOptimize(core::greedy_decompose(base, route));
  }
  state.counters["routes"] = static_cast<double>(loaded.routes.size());
}
BENCHMARK(BM_GreedyDecomposeSharedAs);

void BM_MplsForwarding(benchmark::State& state) {
  // Forwarding throughput through provisioned label tables on a ring.
  static const Graph g = topo::make_ring(64);
  static core::RbpcController* ctl = [] {
    auto* c = new core::RbpcController(g, spf::Metric::Hops);
    c->provision();
    return c;
  }();
  Rng rng(8);
  for (auto _ : state) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    benchmark::DoNotOptimize(ctl->send(s, t));
  }
}
BENCHMARK(BM_MplsForwarding);

void BM_FecUpdateOnLinkFailure(benchmark::State& state) {
  // The control-plane cost RBPC pays per failure event: recompute FEC
  // chains for affected pairs (no ILM churn, no signalling).
  static const Graph g = [] {
    Rng rng(9);
    return topo::make_isp_like(rng, true);
  }();
  static core::RbpcController* ctl = [] {
    auto* c = new core::RbpcController(g, spf::Metric::Weighted);
    c->provision();
    return c;
  }();
  Rng rng(10);
  for (auto _ : state) {
    const auto e = static_cast<graph::EdgeId>(rng.below(g.num_edges()));
    ctl->fail_link(e);
    ctl->recover_link(e);
  }
}
BENCHMARK(BM_FecUpdateOnLinkFailure);

void BM_MinCostBypass(benchmark::State& state) {
  const Graph& g = isp_graph();
  Rng rng(11);
  for (auto _ : state) {
    const auto e = static_cast<graph::EdgeId>(rng.below(g.num_edges()));
    benchmark::DoNotOptimize(spf::min_cost_bypass(g, e));
  }
}
BENCHMARK(BM_MinCostBypass);

// --- Observability overhead ------------------------------------------------
//
// Quantify the always-on cost of the instrumentation itself (every build
// compiles it in):
//
//   build/bench/micro_perf --benchmark_filter='Obs|Dijkstra'
//
// ObsCounterAdd / ObsHistogramRecord / ObsSpan measure the primitives in a
// tight loop (worst case: nothing else between increments); DijkstraIsp
// above doubles as the end-to-end check, since the SPF kernel flushes
// counters and TreeCache/BatchRestorer wrap it in spans.

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter counter =
      obs::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) {
    counter.add(1);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::Histogram hist =
      obs::MetricsRegistry::global().histogram("bench.hist");
  std::uint64_t v = 0;
  for (auto _ : state) {
    hist.record(v++ & 0xfff);
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsSpan(benchmark::State& state) {
  // Tracer disabled (the steady-state configuration): two clock reads plus
  // one striped histogram record per span.
  obs::Tracer::global().disable();
  for (auto _ : state) {
    RBPC_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpan);

void BM_RerouteRecordCapture(benchmark::State& state) {
  // The introspection plane's entire per-reroute cost in one loop: request
  // id, the eight stage stamps, the exemplar-carrying histogram record and
  // the seqlock publish into a flight-recorder ring — everything
  // RestorationService adds per pass. CI gates this against
  // BM_SourceRbpcRestore: capture must stay under 5% of a restore.
  static obs::FlightRecorder recorder(1, 64);
  static obs::Histogram latency =
      obs::MetricsRegistry::global().histogram("bench.capture.latency");
  for (auto _ : state) {
    obs::RerouteRecord rec;
    rec.request_id = obs::next_request_id();
    rec.enqueue_ns = obs::now_ns();
    rec.start_ns = obs::now_ns();
    rec.snapshot_ns = obs::now_ns();
    rec.spf_ns = obs::now_ns();
    rec.decompose_ns = obs::now_ns();
    rec.install_ns = obs::now_ns();
    rec.done_ns = obs::now_ns();
    rec.demand = 1;
    rec.src = 2;
    rec.dst = 3;
    rec.snapshot_version = 4;
    rec.rung = static_cast<std::uint8_t>(obs::Rung::kRepaired);
    rec.flags = obs::kFlagInstalled;
    latency.record_with_exemplar((rec.done_ns - rec.start_ns) / 1000,
                                 rec.request_id);
    recorder.publish(0, rec);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_RerouteRecordCapture);

void BM_ArenaRestoreTracedZeroAlloc(benchmark::State& state) {
  // BM_ArenaRestoreZeroAlloc's measured loop with the request-trace capture
  // riding along, proving the introspection plane keeps the warm path's
  // zero-heap-allocation property: any allocation (from the capture OR the
  // restore) fails the benchmark the same way.
  const Graph& g = isp_graph();
  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  core::AllPairsShortestBaseSet base(oracle);
  struct Case {
    NodeId s;
    NodeId t;
    FailureMask mask;
  };
  Rng rng(13);
  std::vector<Case> cases;
  while (cases.size() < 16) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    const graph::Path lsp = oracle.canonical_path(s, t);
    if (lsp.hops() < 1) continue;
    FailureMask mask;
    mask.fail_edge(lsp.edge(rng.below(lsp.hops())));
    cases.push_back(Case{s, t, std::move(mask)});
  }
  core::RestoreScratch scratch;
  for (const Case& c : cases) {
    core::source_rbpc_restore_into(base, c.s, c.t, c.mask, scratch);
  }
  obs::FlightRecorder recorder(1, 64);
  static obs::Histogram latency =
      obs::MetricsRegistry::global().histogram("bench.capture.latency");
  const std::uint64_t before = heap_allocs();
  std::size_t i = 0;
  for (auto _ : state) {
    const Case& c = cases[i++ % cases.size()];
    obs::RerouteRecord rec;
    rec.request_id = obs::next_request_id();
    rec.start_ns = obs::now_ns();
    core::source_rbpc_restore_into(base, c.s, c.t, c.mask, scratch);
    rec.done_ns = obs::now_ns();
    rec.src = c.s;
    rec.dst = c.t;
    rec.rung = static_cast<std::uint8_t>(obs::Rung::kCached);
    latency.record_with_exemplar((rec.done_ns - rec.start_ns) / 1000,
                                 rec.request_id);
    recorder.publish(0, rec);
    benchmark::DoNotOptimize(scratch.backup);
  }
  gate_zero_allocs(state, heap_allocs() - before,
                   "traced warm restoration allocated on the heap");
}
BENCHMARK(BM_ArenaRestoreTracedZeroAlloc);

void BM_ObsSpanTraced(benchmark::State& state) {
  // Tracer enabled: adds one short mutexed append to a per-thread buffer.
  // clear() between i 0 and the cap keeps the buffer from saturating.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  std::size_t n = 0;
  for (auto _ : state) {
    RBPC_TRACE_SPAN("bench.span.traced");
    if (++n == obs::Tracer::kMaxEventsPerThread / 2) {
      state.PauseTiming();
      tracer.clear();
      n = 0;
      state.ResumeTiming();
    }
  }
  tracer.disable();
  tracer.clear();
}
BENCHMARK(BM_ObsSpanTraced);

}  // namespace

// main() comes from benchmark::benchmark_main.
