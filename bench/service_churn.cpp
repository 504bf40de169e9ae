// Service churn bench: flap storms against the always-on restoration
// service, with the post-storm quiescence invariants as a red/green gate.
//
// Takes the N largest corpus topologies (by edge count — the same 54-case
// corpus the differential suites sweep), plans a chaos-seeded flap storm on
// each (lost / jittered / duplicated LSA deliveries, per-edge generations,
// closing refresh epoch), and feeds the deliveries to a RestorationService
// from several concurrent ingest threads while its worker pool reroutes.
// After quiesce() the run verifies, per storm:
//
//   1. view == truth: every edge's failed bit and generation in the service
//      LSDB match the storm's ground truth;
//   2. bit-identical tables: every demand's route (backup path AND greedy
//      decomposition) equals a serial source-RBPC replay of the final mask;
//   3. accounting: LSAs applied + discarded == deliveries ingested, and
//      no reroute is still in flight.
//
// Any violation makes the bench exit 1 — CI runs a short storm and treats
// violations as a red build, so this doubles as the concurrency regression
// gate for the service.
//
// Throughput is reported as reroutes/sec over the churn window (ingest
// start -> quiescence) and published as the svc.reroutes_per_sec gauge;
// per-reroute restoration latency (p50/p99, microseconds) comes from the
// svc.restore.latency histogram the service records internally. Both land
// in the --metrics-json scrape (BENCH_service.json in CI).
//
// Human-readable narration goes to stderr; stdout carries only artifacts
// explicitly requested with "-" (see bench_obs.hpp).
//
// Flags: --seed N            base seed (default 1)
//        --topos N           largest corpus topologies to run (default 6)
//        --storms N          storms per topology (default 3)
//        --events N          transitions per storm (default 24)
//        --demands N         demands per service (default 32)
//        --ingest-threads N  concurrent ingest threads (default 2)
//        --workers N         reroute workers (default 0 = hardware)
//        --loss P            LSA loss probability (default 0.1)
//        --metrics-json PATH, --trace-out PATH, --obs-check LIST
//
// Introspection-plane flags:
//        --slo-p99-us N      windowed-p99 objective for svc.restore.latency
//                            in microseconds (default 200000; 0 disables).
//                            A breach at the end-of-run tick exits 1.
//        --slo-no-route-pm N no-route demands per-mille objective
//                            (svc.no_route / svc.demands, default 1000 =
//                            permissive; tighten in CI)
//        --flight-dump PATH  write the violating service's flight-recorder
//                            JSON here when an invariant trips (first
//                            violation wins) — the red-run artifact
//        --serve-port N      start a scrape endpoint on 127.0.0.1:N for the
//                            whole run (0 = ephemeral; the bound port is
//                            printed to stderr). CI curls /metrics mid-run.
//        --serve-hold-ms N   keep the endpoint up N ms after the storms
//                            finish so an external scraper can land
//
// Persistence-plane flags (DESIGN.md §14):
//        --persist-dir DIR   enable the crash-safe persistence plane: each
//                            storm's service journals snapshot + WAL into
//                            its own subdirectory of DIR
//        --restart           after each storm quiesces, stop the service,
//                            boot a fresh instance from its journal and
//                            re-check view==truth and the bit-identical
//                            table invariants on the recovered instance.
//                            LSA accounting is skipped on that instance:
//                            recovery replays journal records, not the
//                            storm's deliveries, so applied+discarded is
//                            not comparable to the delivery count.
//        --watchdog-ms N     watchdog thread flags any reroute worker whose
//                            heartbeat gauge (svc.worker.heartbeat_ns.<w>,
//                            stamped every worker-loop pass, so an idle
//                            worker still beats) goes silent for more than
//                            N ms mid-churn, and dumps the flight-recorder
//                            rings to --flight-dump for the postmortem
//                            (0 = off). Flags are warnings, not failures:
//                            a starved CI runner can stall a thread without
//                            the service being wrong.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_obs.hpp"
#include "chaos/storm.hpp"
#include "core/restoration.hpp"
#include "corpus.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/slo.hpp"
#include "service/service.hpp"
#include "service_harness.hpp"
#include "spf/metric.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rbpc;
using graph::EdgeId;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using service::Demand;
using service::RestorationService;
using service::ServiceOptions;
using service::ServiceStats;
using testing::TopoCase;
using testing::random_demands;
using testing::serial_replay;

/// Checks the three post-storm invariants; reports each violation on stderr
/// and returns how many fired.
std::size_t check_invariants(const RestorationService& svc,
                             const chaos::Storm& storm,
                             const std::vector<Demand>& demands,
                             spf::Metric metric, const std::string& context,
                             bool check_accounting) {
  std::size_t violations = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "VIOLATION (" << context << "): " << what << "\n";
    ++violations;
  };

  const Graph& g = svc.graph();
  const FailureMask truth = storm.final_mask();
  const std::vector<std::uint64_t> gens =
      storm.final_generations(g.num_edges());
  std::vector<lsdb::LinkStateRecord> want_links;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (truth.edge_failed(e) || gens[e] != 0) {
      want_links.push_back({e, truth.edge_failed(e), gens[e]});
    }
  }
  if (svc.lsdb().export_records() != want_links) {
    fail("LSDB link records (down flags, generations) != truth");
  }

  const std::vector<core::Restoration> want =
      serial_replay(g, metric, demands, truth);
  const std::vector<core::Restoration> got = svc.routes();
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (!(want[d].backup == got[d].backup)) {
      fail("demand " + std::to_string(d) + ": backup differs from replay");
    } else if (!(want[d].decomposition == got[d].decomposition)) {
      fail("demand " + std::to_string(d) + ": decomposition differs");
    }
  }

  const ServiceStats stats = svc.stats();
  if (check_accounting &&
      stats.events_applied + stats.events_discarded !=
          storm.deliveries.size()) {
    fail("LSA accounting: applied " + std::to_string(stats.events_applied) +
         " + discarded " + std::to_string(stats.events_discarded) +
         " != deliveries " + std::to_string(storm.deliveries.size()));
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbpc;
  const CliArgs args(argc, argv);
  const std::uint64_t base_seed = args.get_uint("seed", 1);
  const std::size_t topos = args.get_uint("topos", 6);
  const std::size_t storms = args.get_uint("storms", 3);
  const std::size_t events = args.get_uint("events", 24);
  const std::size_t num_demands = args.get_uint("demands", 32);
  const std::size_t ingest_threads =
      std::max<std::size_t>(1, args.get_uint("ingest-threads", 2));
  const std::size_t workers = args.get_uint("workers", 0);
  const double loss = args.get_double("loss", 0.1);
  const std::uint64_t slo_p99_us = args.get_uint("slo-p99-us", 200'000);
  const std::uint64_t slo_no_route_pm = args.get_uint("slo-no-route-pm", 1000);
  const std::string flight_dump = args.get_string("flight-dump", "");
  const std::string persist_dir = args.get_string("persist-dir", "");
  const bool restart = args.has("restart");
  const std::uint64_t watchdog_ms = args.get_uint("watchdog-ms", 0);
  const bool serve = args.has("serve-port");
  const auto serve_port =
      static_cast<std::uint16_t>(args.get_uint("serve-port", 0));
  const std::uint64_t serve_hold_ms = args.get_uint("serve-hold-ms", 0);
  const bench::ObsCli obs_cli = bench::ObsCli::from_args(args);

  // SLO objectives over the service's own histograms/gauges. The tracker is
  // ticked by every endpoint scrape and once at end of run, so with no
  // scraper the single window covers the whole run.
  std::vector<obs::SloObjective> objectives;
  if (slo_p99_us > 0) {
    objectives.push_back(obs::SloObjective{
        .name = "restore_p99",
        .histogram = "svc.restore.latency",
        .quantile = 0.99,
        .threshold = slo_p99_us,
    });
  }
  obs::SloTracker slo(
      obs::MetricsRegistry::global(), std::move(objectives),
      {obs::SloRatioObjective{.name = "no_route",
                              .numerator = "svc.no_route",
                              .denominator = "svc.demands",
                              .max_per_mille = slo_no_route_pm}});

  std::unique_ptr<obs::ExpositionServer> endpoint;
  if (serve) {
    obs::ExpositionOptions eo;
    eo.port = serve_port;
    eo.slo = &slo;
    endpoint = std::make_unique<obs::ExpositionServer>(eo);
    std::cerr << "serving metrics on 127.0.0.1:" << endpoint->port()
              << " (/metrics, /metrics.json, /slo)\n";
  }

  // Largest topologies first: those are where hub fan-out and path length
  // make concurrent reroutes expensive enough to race for real.
  std::vector<TopoCase> cases = testing::corpus();
  std::stable_sort(cases.begin(), cases.end(),
                   [](const TopoCase& a, const TopoCase& b) {
                     return a.g.num_edges() > b.g.num_edges();
                   });
  if (cases.size() > topos) cases.resize(topos);

  chaos::StormConfig config;
  config.events = events;
  config.faults.lsa_loss = loss;
  config.faults.lsa_jitter = 4.0;
  config.faults.lsa_dup = 0.1;
  config.faults.miss_detect = loss / 2;
  config.faults.flap_count = 1;

  std::cerr << "service churn: " << cases.size() << " topologies x " << storms
            << " storms, " << events << " transitions per storm, "
            << num_demands << " demands, " << ingest_threads
            << " ingest threads\n\n";

  TablePrinter table({"topology", "nodes", "edges", "deliveries", "reroutes",
                      "installs", "revalidated", "wall ms", "violations"});
  std::size_t total_violations = 0;
  std::uint64_t total_reroutes = 0;
  std::uint64_t total_wall_ns = 0;
  std::atomic<bool> flight_dumped{false};
  std::atomic<std::uint64_t> watchdog_flags{0};

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Graph& g = cases[ci].g;
    std::size_t deliveries = 0, violations = 0;
    std::uint64_t reroutes = 0, installs = 0, revalidated = 0;
    std::uint64_t wall_ns = 0;

    for (std::size_t s = 0; s < storms; ++s) {
      Rng rng(base_seed * 1'000'000 + ci * 1'000 + s);
      const std::vector<Demand> demands =
          random_demands(g, num_demands, rng);
      const chaos::Storm storm = chaos::plan_storm(g, config, rng);
      deliveries += storm.deliveries.size();

      ServiceOptions options;
      options.workers = workers;
      if (!persist_dir.empty()) {
        // One journal directory per storm: demands differ per storm, so a
        // later restart must recover against the matching demand set.
        options.persist.dir = persist_dir + "/" + cases[ci].name + "_s" +
                              std::to_string(s);
      }
      auto svc =
          std::make_unique<RestorationService>(g, demands, options);

      // Watchdog: every worker stamps svc.worker.heartbeat_ns.<w> on each
      // worker-loop pass (idle workers included), so a heartbeat older than
      // the budget means a reroute wedged or a queue deadlocked — exactly
      // what the flight rings can explain post mortem.
      std::atomic<bool> watchdog_stop{false};
      std::thread watchdog;
      if (watchdog_ms > 0) {
        watchdog = std::thread([&] {
          const std::uint64_t budget_ns = watchdog_ms * 1'000'000;
          const auto nap = std::chrono::milliseconds(
              std::max<std::uint64_t>(1, watchdog_ms / 4));
          while (!watchdog_stop.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(nap);
            for (std::size_t w = 0; w < svc->num_workers(); ++w) {
              const std::uint64_t beat = svc->worker_heartbeat_ns(w);
              if (beat == 0) continue;  // worker not yet scheduled
              const std::uint64_t now = obs::now_ns();
              if (now > beat && now - beat > budget_ns) {
                watchdog_flags.fetch_add(1, std::memory_order_relaxed);
                std::cerr << "WATCHDOG (" << cases[ci].name << " storm " << s
                          << "): worker " << w << " silent for "
                          << (now - beat) / 1'000'000 << " ms\n";
                if (!flight_dump.empty() && !flight_dumped.exchange(true)) {
                  svc->flight_recorder().dump_to_file(
                      flight_dump,
                      "watchdog: worker " + std::to_string(w) +
                          " heartbeat silent past " +
                          std::to_string(watchdog_ms) + " ms");
                }
              }
            }
          }
        });
      }

      // The churn window: concurrent striped ingest through quiescence.
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::thread> threads;
        threads.reserve(ingest_threads);
        for (std::size_t t = 0; t < ingest_threads; ++t) {
          threads.emplace_back([&, t] {
            for (std::size_t i = t; i < storm.deliveries.size();
                 i += ingest_threads) {
              svc->ingest(storm.deliveries[i].event);
            }
          });
        }
        for (std::thread& th : threads) th.join();
      }
      svc->quiesce();
      wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (watchdog.joinable()) {
        watchdog_stop.store(true, std::memory_order_release);
        watchdog.join();
      }

      const std::size_t storm_violations = check_invariants(
          *svc, storm, demands, options.metric,
          cases[ci].name + " storm " + std::to_string(s),
          /*check_accounting=*/true);
      violations += storm_violations;
      if (storm_violations > 0 && !flight_dump.empty() &&
          !flight_dumped.exchange(true)) {
        // Ship the evidence from the service that actually failed: its
        // rings still hold the last reroutes (request ids, ladder rungs,
        // stage timings) that produced the divergent table.
        svc->flight_recorder().dump_to_file(
            flight_dump, "service churn invariant violation: " +
                             cases[ci].name + " storm " + std::to_string(s));
      }
      const ServiceStats stats = svc->stats();
      reroutes += stats.reroutes;
      installs += stats.installs;
      revalidated += stats.revalidations;
      svc->stop();

      if (restart && !persist_dir.empty()) {
        // Graceful-restart leg: tear the process state down (the journal
        // survives), boot a fresh instance from the same directory, and
        // hold the recovered service to the same view==truth and
        // bit-identical-table bar once its re-enqueued reroutes settle.
        svc.reset();
        RestorationService svc2(g, demands, options);
        const std::string ctx =
            cases[ci].name + " storm " + std::to_string(s) + " restart";
        if (!svc2.recovered()) {
          std::cerr << "VIOLATION (" << ctx << "): journal did not recover\n";
          ++violations;
        }
        svc2.quiesce();
        violations += check_invariants(svc2, storm, demands, options.metric,
                                       ctx, /*check_accounting=*/false);
        svc2.stop();
      }
    }

    total_violations += violations;
    total_reroutes += reroutes;
    total_wall_ns += wall_ns;
    table.add_row({cases[ci].name, std::to_string(g.num_nodes()),
                   std::to_string(g.num_edges()), std::to_string(deliveries),
                   std::to_string(reroutes), std::to_string(installs),
                   std::to_string(revalidated),
                   std::to_string(wall_ns / 1'000'000),
                   std::to_string(violations)});
  }

  // Aggregate throughput over the churn windows, published as a gauge so it
  // lands in the BENCH_service.json scrape next to the latency histogram.
  const double secs = static_cast<double>(total_wall_ns) / 1e9;
  const std::int64_t per_sec =
      secs > 0.0
          ? static_cast<std::int64_t>(static_cast<double>(total_reroutes) /
                                      secs)
          : 0;
  obs::MetricsRegistry::global().gauge("svc.reroutes_per_sec").set(per_sec);

  const LatencyHistogram latency =
      obs::MetricsRegistry::global().histogram("svc.restore.latency")
          .snapshot();
  std::cerr << "\n" << table.to_text() << "\n"
            << "reroutes/sec (churn window): " << per_sec << "\n"
            << "restore latency us: p50 " << latency.quantile(0.5) << ", p99 "
            << latency.quantile(0.99) << " (" << latency.count()
            << " reroutes)\n";

  // End-of-run SLO tick: with no external scraper this makes the single
  // window the whole run; with one it just adds the final interval. The
  // slo.* gauges land in the --metrics-json scrape taken by finish().
  slo.tick();
  for (const obs::SloTracker::Status& st : slo.status()) {
    std::cerr << "slo " << st.name << ": value " << st.value << " objective "
              << st.objective << " burn_pm " << st.burn_pm
              << (st.breached ? " BREACHED" : " ok") << "\n";
  }

  if (endpoint != nullptr && serve_hold_ms > 0) {
    std::cerr << "holding endpoint for " << serve_hold_ms << " ms\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_hold_ms));
  }

  if (watchdog_flags.load() > 0) {
    std::cerr << "watchdog: " << watchdog_flags.load()
              << " silent-worker flags (see stderr above; warnings only)\n";
  }

  int rc = obs_cli.finish();
  if (slo.last_breached() > 0) {
    std::cerr << "service churn FAILED: " << slo.last_breached()
              << " SLO objectives breached\n";
    rc = 1;
  }
  if (total_violations > 0) {
    std::cerr << "service churn FAILED: " << total_violations
              << " invariant violations\n";
    rc = 1;
  } else {
    std::cerr << "service churn clean: zero invariant violations\n";
  }
  return rc;
}
