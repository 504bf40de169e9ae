// Serial vs parallel batch restoration on the Table-1 topologies — the
// Section-5 event workload: after each failure event, restore every
// affected provisioned LSP. The serial baseline is the plain
// source_rbpc_restore loop; the parallel engine is core/batch.hpp's
// BatchRestorer (fixed thread pool + shared per-source SPF trees).
//
// The two runs use independent base sets (both start cold) and the outputs
// are compared restoration-by-restoration: the engine guarantees
// byte-identical results for every thread count, and the bench verifies it
// on the fly.
//
// Failed links are drawn from the provisioned LSPs' edge *occurrences*
// (usage-weighted), mirroring the paper's methodology of failing links on
// sampled routes — hot backbone links affect many LSPs at once, which is
// precisely the batch workload.
//
// A second section compares incremental SPT repair (spf/incremental.hpp)
// against from-scratch Dijkstra under single-link failures on the same
// topologies, verifying bit-identical trees on every trial, and — when
// --spf-json PATH is given — emits the results as machine-readable JSON
// (CI archives it as BENCH_spf.json and fails the job on any divergence).
//
// Human-readable narration (tables, notes) goes to stderr; stdout carries
// only machine-readable artifacts explicitly requested with "-" (e.g.
// `--spf-json -` or `--metrics-json -`), so piping to jq never sees table
// text interleaved with JSON.
//
// Flags: --seed N, --scale X (Table-1 sizes; default 0.1), --threads N,
//        --pairs N (provisioned LSPs), --events N, --max-fails N,
//        --spf-json PATH, --spf-trials N (failure trials per network),
//        --metrics-json PATH, --trace-out PATH, --obs-check LIST
//        (see bench_obs.hpp; PATH "-" means stdout)
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "core/base_set.hpp"
#include "core/batch.hpp"
#include "core/restoration.hpp"
#include "core/scenario.hpp"
#include "spf/incremental.hpp"
#include "spf/oracle.hpp"
#include "spf/workspace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rbpc;
using core::BatchOptions;
using core::BatchRestorer;
using core::Restoration;
using core::RestoreJob;
using graph::EdgeId;
using graph::FailureMask;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Workload {
  std::vector<RestoreJob> pairs;
  std::vector<graph::Path> lsps;
  std::vector<FailureMask> masks;                 // one per event
  std::vector<std::vector<RestoreJob>> jobs;      // affected pairs per event
  std::size_t total_jobs = 0;
};

Workload build_workload(const graph::Graph& g, spf::Metric metric,
                        std::size_t pairs, std::size_t events,
                        std::size_t max_fails, Rng& rng) {
  Workload w;
  spf::DistanceOracle oracle(g, FailureMask{}, metric, 128);
  std::vector<EdgeId> occurrences;  // LSP edges, multiplicity = usage
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng sample_rng = rng.fork();
    const core::SamplePair pair = core::sample_pair(oracle, sample_rng);
    w.pairs.push_back(RestoreJob{pair.src, pair.dst});
    w.lsps.push_back(pair.lsp);
    for (EdgeId e : pair.lsp.edges()) occurrences.push_back(e);
  }
  for (std::size_t ev = 0; ev < events; ++ev) {
    Rng event_rng = rng.fork();
    const std::size_t k = 1 + event_rng.below(max_fails);
    FailureMask mask;
    for (std::size_t f = 0; f < k; ++f) {
      mask.fail_edge(occurrences[event_rng.below(occurrences.size())]);
    }
    std::vector<RestoreJob> jobs;
    for (std::size_t idx : core::affected_lsps(g, w.lsps, mask)) {
      jobs.push_back(w.pairs[idx]);
    }
    w.total_jobs += jobs.size();
    w.masks.push_back(std::move(mask));
    w.jobs.push_back(std::move(jobs));
  }
  return w;
}

// --- Incremental repair vs from-scratch SPF ---------------------------------

struct SpfBenchRow {
  std::string name;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t trials = 0;
  double scratch_ns = 0;  // mean per tree
  double repair_ns = 0;   // mean per tree
  std::size_t repairs = 0;
  std::size_t identities = 0;
  std::size_t fallbacks = 0;
  bool identical = true;

  double speedup() const {
    return repair_ns > 0 ? scratch_ns / repair_ns : 0.0;
  }
};

bool trees_identical(const spf::ShortestPathTree& a,
                     const spf::ShortestPathTree& b) {
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.dist(v) != b.dist(v) || a.key(v) != b.key(v)) return false;
    if (a.reachable(v) &&
        (a.hops(v) != b.hops(v) || a.parent(v) != b.parent(v) ||
         a.parent_edge(v) != b.parent_edge(v))) {
      return false;
    }
  }
  return true;
}

// Single-edge failures: for each trial, time shortest_tree under the mask
// from scratch vs repair_tree from the cached unfailed tree, and require
// the two trees to be bit-identical.
SpfBenchRow run_spf_bench(const bench::NetworkCase& net, std::size_t trials,
                          Rng& rng) {
  const graph::Graph& g = net.g;
  const spf::SpfOptions options{.metric = net.metric, .padded = true};
  // One workspace and two trees, reused across trials: the timed scratch
  // run rebuilds `scratch` in place.
  spf::SpfWorkspace ws;
  spf::ShortestPathTree base;
  spf::ShortestPathTree scratch;
  SpfBenchRow row;
  row.name = net.name;
  row.nodes = g.num_nodes();
  row.edges = g.num_edges();
  row.trials = trials;

  double scratch_ns = 0;
  double repair_ns = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    spf::shortest_tree_into(g, s, FailureMask::none(), options, ws, base);
    FailureMask mask;
    mask.fail_edge(static_cast<EdgeId>(rng.below(g.num_edges())));

    auto t0 = std::chrono::steady_clock::now();
    spf::shortest_tree_into(g, s, mask, options, ws, scratch);
    scratch_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    spf::RepairReport report;
    t0 = std::chrono::steady_clock::now();
    const spf::ShortestPathTree repaired = spf::repair_tree(
        g, base, mask, options, ws, spf::IncrementalOptions{}, &report);
    repair_ns += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

    switch (report.kind) {
      case spf::RepairKind::kRepaired: ++row.repairs; break;
      case spf::RepairKind::kIdentity: ++row.identities; break;
      case spf::RepairKind::kScratch: ++row.fallbacks; break;
    }
    if (!trees_identical(scratch, repaired)) row.identical = false;
  }
  row.scratch_ns = scratch_ns / static_cast<double>(trials);
  row.repair_ns = repair_ns / static_cast<double>(trials);
  return row;
}

std::string spf_bench_json(const std::vector<SpfBenchRow>& rows) {
  const SpfBenchRow* largest = nullptr;
  for (const SpfBenchRow& r : rows) {
    if (largest == nullptr || r.nodes > largest->nodes) largest = &r;
  }
  std::ostringstream os;
  os << "{\n  \"k\": 1,\n  \"networks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpfBenchRow& r = rows[i];
    os << "    {\"name\": \"" << r.name << "\", \"nodes\": " << r.nodes
       << ", \"edges\": " << r.edges << ", \"trials\": " << r.trials
       << ", \"scratch_ns\": " << r.scratch_ns
       << ", \"repair_ns\": " << r.repair_ns
       << ", \"speedup\": " << r.speedup() << ", \"repairs\": " << r.repairs
       << ", \"identities\": " << r.identities
       << ", \"fallbacks\": " << r.fallbacks << ", \"identical\": "
       << (r.identical ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"largest\": {\"name\": \"";
  if (largest != nullptr) {
    os << largest->name << "\", \"speedup\": " << largest->speedup();
  } else {
    os << "\", \"speedup\": 0";
  }
  os << "}\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::uint64_t seed = args.get_uint("seed", 1);
  const double scale = args.get_double("scale", 0.1);
  const std::size_t threads = args.get_uint("threads", 4);
  const std::size_t pairs = args.get_uint("pairs", 600);
  const std::size_t events = args.get_uint("events", 20);
  const std::size_t max_fails = args.get_uint("max-fails", 3);
  const std::string spf_json = args.get_string("spf-json", "");
  const std::size_t spf_trials = args.get_uint("spf-trials", 40);
  const bench::ObsCli obs_cli = bench::ObsCli::from_args(args);
  if (max_fails == 0) {
    std::cerr << "batch_restore: --max-fails must be at least 1\n";
    return 1;
  }

  std::cerr << "Batch restoration: serial loop vs " << threads
            << "-thread BatchRestorer (hardware threads: "
            << ThreadPool::default_threads() << ")\n\n";

  TablePrinter table({"network", "nodes", "links", "events", "restorations",
                      "serial ms", "batch ms", "batch 1st ms",
                      "batch ms/event after", "speedup", "SPF cache hits",
                      "identical"});
  for (const auto& net : bench::make_networks(seed, scale)) {
    Rng rng(seed * 97 + 11);
    const Workload w =
        build_workload(net.g, net.metric, pairs, events, max_fails, rng);

    // Serial baseline: cold base set, plain loop.
    spf::DistanceOracle serial_oracle(net.g, FailureMask{}, net.metric, 128);
    core::CanonicalBaseSet serial_base(serial_oracle);
    std::vector<std::vector<Restoration>> serial_results(w.masks.size());
    const auto t_serial = std::chrono::steady_clock::now();
    for (std::size_t ev = 0; ev < w.masks.size(); ++ev) {
      for (const RestoreJob& job : w.jobs[ev]) {
        serial_results[ev].push_back(core::source_rbpc_restore(
            serial_base, job.src, job.dst, w.masks[ev]));
      }
    }
    const double serial_ms = ms_since(t_serial);

    // Parallel engine: cold base set of its own.
    spf::DistanceOracle batch_oracle(net.g, FailureMask{}, net.metric, 128);
    core::CanonicalBaseSet parallel_base(batch_oracle);
    BatchRestorer batch(parallel_base, BatchOptions{.threads = threads});
    std::vector<std::vector<Restoration>> batch_results(w.masks.size());
    // The first event pays for cold unfailed trees; later ones mostly hit.
    double batch_first_ms = 0;
    const auto t_batch = std::chrono::steady_clock::now();
    for (std::size_t ev = 0; ev < w.masks.size(); ++ev) {
      batch_results[ev] = batch.restore_all(w.masks[ev], w.jobs[ev]);
      if (ev == 0) batch_first_ms = ms_since(t_batch);
    }
    const double batch_ms = ms_since(t_batch);
    const double batch_steady_ms =
        w.masks.size() > 1 ? (batch_ms - batch_first_ms) /
                                 static_cast<double>(w.masks.size() - 1)
                           : 0.0;

    bool identical = true;
    for (std::size_t ev = 0; ev < w.masks.size() && identical; ++ev) {
      for (std::size_t i = 0; i < w.jobs[ev].size() && identical; ++i) {
        const Restoration& a = serial_results[ev][i];
        const Restoration& b = batch_results[ev][i];
        identical = a.backup == b.backup &&
                    a.decomposition.pieces == b.decomposition.pieces &&
                    a.decomposition.is_base == b.decomposition.is_base;
      }
    }

    table.add_row({net.name, std::to_string(net.g.num_nodes()),
                   std::to_string(net.g.num_edges()),
                   std::to_string(w.masks.size()),
                   std::to_string(w.total_jobs), TablePrinter::num(serial_ms),
                   TablePrinter::num(batch_ms),
                   TablePrinter::num(batch_first_ms),
                   TablePrinter::num(batch_steady_ms),
                   TablePrinter::num(batch_ms > 0 ? serial_ms / batch_ms : 0.0)
                       + "x",
                   TablePrinter::percent(batch.stats().spf_hit_rate()),
                   identical ? "yes" : "NO — BUG"});
  }
  std::cerr << table.to_text()
            << "\nspeedup > 1 requires real hardware parallelism; the "
               "identical column must read 'yes' for every row regardless "
               "of thread count.\n";

  // Incremental repair vs from-scratch SPF under single-link failures.
  std::cerr << "\nIncremental SPT repair vs from-scratch Dijkstra "
               "(single-edge failures, padded trees, " << spf_trials
            << " trials per network)\n\n";
  TablePrinter spf_table({"network", "nodes", "links", "scratch us/tree",
                          "repair us/tree", "speedup", "repair/identity/"
                          "fallback", "identical"});
  std::vector<SpfBenchRow> spf_rows;
  bool spf_identical = true;
  for (const auto& net : bench::make_networks(seed, scale)) {
    Rng rng(seed * 131 + 7);
    SpfBenchRow row = run_spf_bench(net, spf_trials, rng);
    spf_identical = spf_identical && row.identical;
    spf_table.add_row(
        {row.name, std::to_string(row.nodes), std::to_string(row.edges),
         TablePrinter::num(row.scratch_ns / 1000.0),
         TablePrinter::num(row.repair_ns / 1000.0),
         TablePrinter::num(row.speedup()) + "x",
         std::to_string(row.repairs) + "/" + std::to_string(row.identities) +
             "/" + std::to_string(row.fallbacks),
         row.identical ? "yes" : "NO — BUG"});
    spf_rows.push_back(std::move(row));
  }
  std::cerr << spf_table.to_text();
  if (!spf_json.empty()) {
    if (spf_json == "-") {
      std::cout << spf_bench_json(spf_rows);
    } else {
      std::ofstream out(spf_json);
      out << spf_bench_json(spf_rows);
      std::cerr << "\nwrote " << spf_json << "\n";
    }
  }

  const int obs_rc = obs_cli.finish();
  if (!spf_identical) {
    std::cerr << "batch_restore: incremental repair diverged from "
                 "from-scratch SPF\n";
    return 1;
  }
  return obs_rc;
}
