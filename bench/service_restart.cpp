// Warm-restart bench: restart-to-ready latency and WAL replay throughput
// of the crash-safe persistence plane (DESIGN.md §14), with the recovered
// table's bit-identity to a serial replay as a red/green gate.
//
// For each of the N largest corpus topologies:
//
//   1. Seed life: run a chaos-seeded flap storm against a persistent
//      RestorationService and quiesce. The snapshot threshold is set far
//      above the storm size, so the journal the service leaves behind is
//      the construction snapshot plus every applied LSA and committed
//      install as WAL records — the worst (= most interesting) replay load.
//   2. Restart cycles: construct a fresh service from the journal
//      (recover = load snapshot, replay WAL, re-enqueue in-flight work)
//      and quiesce it. Wall time from construction start to quiescence is
//      one restart-to-ready sample; the service's own recovery_us (the
//      recover() window) and recovered_wal_records give the replay rate.
//   3. Verify: every cycle's quiescent table must equal a serial
//      source-RBPC replay of the storm's final mask, bit for bit, with
//      zero replay anomalies. Any divergence makes the bench exit 1 —
//      CI treats a restart that loses state as a red build.
//
// Results land in a flat JSON artifact (default BENCH_restart.json):
// restart_to_ready_{p50,p99}_us, recover_{p50,p99}_us, replayed
// records/sec, cycle and record totals. tools/bench_diff.py can diff two
// artifacts' histogram-free scalar fields only by eye; the latency gate in
// CI diffs the accompanying --metrics-json scrape (svc.recovery.latency)
// like every other service histogram.
//
// Flags: --seed N        base seed (default 1)
//        --topos N       largest corpus topologies to run (default 4)
//        --cycles N      restarts per topology (default 5)
//        --events N      transitions per storm (default 16)
//        --demands N     demands per service (default 24)
//        --workers N     reroute workers (default 0 = hardware)
//        --dir PATH      journal root (default bench_restart_journal;
//                        wiped per topology before the seed life)
//        --json PATH     artifact path (default BENCH_restart.json)
//        --metrics-json PATH, --trace-out PATH, --obs-check LIST
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_obs.hpp"
#include "chaos/storm.hpp"
#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "corpus.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "persist/io.hpp"
#include "persist/store.hpp"
#include "service/service.hpp"
#include "spf/metric.hpp"
#include "spf/oracle.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rbpc;
using graph::FailureMask;
using graph::Graph;
using graph::NodeId;
using service::Demand;
using service::RestorationService;
using service::ServiceOptions;
using service::ServiceStats;
using testing::TopoCase;

std::vector<Demand> random_demands(const Graph& g, std::size_t count,
                                   Rng& rng) {
  std::vector<Demand> demands;
  while (demands.size() < count) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (s == t) continue;
    demands.push_back(Demand{s, t});
  }
  return demands;
}

std::vector<core::Restoration> serial_replay(const Graph& g,
                                             spf::Metric metric,
                                             const std::vector<Demand>& demands,
                                             const FailureMask& mask) {
  spf::DistanceOracle oracle(g, FailureMask{}, metric);
  core::CanonicalBaseSet base(oracle);
  std::vector<core::Restoration> out;
  out.reserve(demands.size());
  for (const Demand& d : demands) {
    out.push_back(core::source_rbpc_restore(base, d.src, d.dst, mask));
  }
  return out;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbpc;
  const CliArgs args(argc, argv);
  const std::uint64_t base_seed = args.get_uint("seed", 1);
  const std::size_t topos = args.get_uint("topos", 4);
  const std::size_t cycles = std::max<std::size_t>(1, args.get_uint("cycles", 5));
  const std::size_t events = args.get_uint("events", 16);
  const std::size_t num_demands = args.get_uint("demands", 24);
  const std::size_t workers = args.get_uint("workers", 0);
  const std::string root = args.get_string("dir", "bench_restart_journal");
  const std::string json_path = args.get_string("json", "BENCH_restart.json");
  const bench::ObsCli obs_cli = bench::ObsCli::from_args(args);

  std::vector<TopoCase> cases = testing::corpus();
  std::stable_sort(cases.begin(), cases.end(),
                   [](const TopoCase& a, const TopoCase& b) {
                     return a.g.num_edges() > b.g.num_edges();
                   });
  if (cases.size() > topos) cases.resize(topos);

  chaos::StormConfig config;
  config.events = events;
  config.faults.lsa_loss = 0.1;
  config.faults.lsa_jitter = 4.0;
  config.faults.lsa_dup = 0.1;
  config.faults.miss_detect = 0.05;
  config.faults.flap_count = 1;

  std::cerr << "service restart: " << cases.size() << " topologies x "
            << cycles << " restart cycles, " << events
            << " transitions per seed storm, " << num_demands << " demands\n\n";

  TablePrinter table({"topology", "nodes", "edges", "wal records",
                      "ready p50 us", "ready p99 us", "recover p50 us",
                      "replayed/sec", "mismatches"});
  std::vector<double> all_ready_us, all_recover_us;
  std::uint64_t total_records = 0, total_recover_us = 0, total_cycles = 0;
  std::size_t mismatches = 0;
  persist::FileIo disk;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Graph& g = cases[ci].g;
    Rng rng(base_seed * 1'000'000 + ci * 1'000);
    const std::vector<Demand> demands = random_demands(g, num_demands, rng);
    const chaos::Storm storm = chaos::plan_storm(g, config, rng);
    const std::vector<core::Restoration> want =
        serial_replay(g, ServiceOptions{}.metric, demands, storm.final_mask());

    ServiceOptions options;
    options.workers = workers;
    options.persist.dir = root + "/" + cases[ci].name;
    // Keep the whole storm in the WAL: the snapshot threshold is far above
    // anything the seed life appends, so every restart replays the full
    // record sequence — the throughput being measured.
    options.persist.snapshot_every = 1u << 30;

    disk.make_dirs(options.persist.dir);
    persist::PersistentStore::wipe(disk, options.persist.dir);

    // Seed life: journal the storm, then "crash" (destructor; the journal
    // stays behind).
    {
      RestorationService svc(g, demands, options);
      for (const chaos::StormEvent& d : storm.deliveries) {
        svc.ingest(d.event);
      }
      svc.quiesce();
      svc.stop();
    }

    std::vector<double> ready_us, recover_us;
    std::uint64_t records = 0;
    std::size_t topo_mismatches = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      RestorationService svc(g, demands, options);
      svc.quiesce();  // ready: re-enqueued in-flight work settled
      const double us =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()) /
          1000.0;
      const ServiceStats stats = svc.stats();
      if (!svc.recovered()) {
        std::cerr << "MISMATCH (" << cases[ci].name << " cycle " << c
                  << "): journal did not recover\n";
        ++topo_mismatches;
      }
      if (stats.replay_anomalies != 0) {
        std::cerr << "MISMATCH (" << cases[ci].name << " cycle " << c
                  << "): " << stats.replay_anomalies << " replay anomalies\n";
        ++topo_mismatches;
      }
      const std::vector<core::Restoration> got = svc.routes();
      for (std::size_t d = 0; d < demands.size(); ++d) {
        if (!(want[d].backup == got[d].backup) ||
            !(want[d].decomposition == got[d].decomposition)) {
          std::cerr << "MISMATCH (" << cases[ci].name << " cycle " << c
                    << "): demand " << d << " diverges from serial replay\n";
          ++topo_mismatches;
        }
      }
      ready_us.push_back(us);
      recover_us.push_back(static_cast<double>(stats.recovery_us));
      records += stats.recovered_wal_records;
      total_recover_us += stats.recovery_us;
      svc.stop();
    }

    all_ready_us.insert(all_ready_us.end(), ready_us.begin(), ready_us.end());
    all_recover_us.insert(all_recover_us.end(), recover_us.begin(),
                          recover_us.end());
    total_records += records;
    total_cycles += cycles;
    mismatches += topo_mismatches;

    const double recover_secs =
        std::accumulate(recover_us.begin(), recover_us.end(), 0.0) / 1e6;
    const double per_sec =
        recover_secs > 0 ? static_cast<double>(records) / recover_secs : 0.0;
    table.add_row({cases[ci].name, std::to_string(g.num_nodes()),
                   std::to_string(g.num_edges()),
                   std::to_string(records / cycles),
                   std::to_string(static_cast<std::uint64_t>(
                       quantile(ready_us, 0.5))),
                   std::to_string(static_cast<std::uint64_t>(
                       quantile(ready_us, 0.99))),
                   std::to_string(static_cast<std::uint64_t>(
                       quantile(recover_us, 0.5))),
                   std::to_string(static_cast<std::uint64_t>(per_sec)),
                   std::to_string(topo_mismatches)});
  }

  const double replayed_per_sec =
      total_recover_us > 0
          ? static_cast<double>(total_records) /
                (static_cast<double>(total_recover_us) / 1e6)
          : 0.0;
  std::cerr << "\n" << table.to_text() << "\n"
            << "restart-to-ready us: p50 " << quantile(all_ready_us, 0.5)
            << ", p99 " << quantile(all_ready_us, 0.99) << " ("
            << total_cycles << " cycles)\n"
            << "replayed WAL records/sec (recover window): "
            << static_cast<std::uint64_t>(replayed_per_sec) << "\n";

  {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"topologies\": " << cases.size() << ",\n"
        << "  \"cycles\": " << total_cycles << ",\n"
        << "  \"demands\": " << num_demands << ",\n"
        << "  \"storm_events\": " << events << ",\n"
        << "  \"wal_records_replayed\": " << total_records << ",\n"
        << "  \"restart_to_ready_p50_us\": " << quantile(all_ready_us, 0.5)
        << ",\n"
        << "  \"restart_to_ready_p99_us\": " << quantile(all_ready_us, 0.99)
        << ",\n"
        << "  \"recover_p50_us\": " << quantile(all_recover_us, 0.5) << ",\n"
        << "  \"recover_p99_us\": " << quantile(all_recover_us, 0.99) << ",\n"
        << "  \"replayed_records_per_sec\": " << replayed_per_sec << ",\n"
        << "  \"mismatches\": " << mismatches << "\n"
        << "}\n";
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cerr << "wrote " << json_path << "\n";
  }

  int rc = obs_cli.finish();
  if (mismatches > 0) {
    std::cerr << "service restart FAILED: " << mismatches
              << " recovered-table mismatches\n";
    rc = 1;
  } else {
    std::cerr << "service restart clean: every recovered table bit-identical "
                 "to the serial replay\n";
  }
  return rc;
}
