// restore_bench: event -> restored benchmark for service::RestorationService.
//
// One named workload (a fixed stand-in graph and demand set; events drawn
// from --seed) drives the service through its public API only (ingest, quiesce,
// route/routes, stats, lsdb(), tree_pool()). The load is a closed loop:
// ingest one LSA, quiesce(), and only then send the next one, so each
// event's restoration time — the
// paper's figure of merit, "one LSA ingested -> every affected demand's FEC
// installed (and made durable)" — is observable from outside.
//
// The event script is a fixed list of fail/recover pairs drawn from the
// seed: each pair fails one link on the route of a randomly drawn demand and
// then recovers it, so the FEC table returns to the provisioned baseline
// after every pair. Pass 0 over the script is untimed: it warms the caches
// and fixes the run's work counts. Timed passes then repeat the script until
// --seconds elapse; every completed pass must repeat pass 0's counts
// exactly (the in-run determinism check). Each script event is timed once
// per timed pass; the end-to-end figures are taken over the script's events
// from each event's median time, so a few seconds of host noise in one pass
// do not reach the percentiles.
//
// Correctness gate (outside every timed window): the provisioned table, the
// tables after the first fails of pass 0 and the final table are compared
// bit for bit (backup path and decomposition) against a serial
// core::source_rbpc_restore replay of the current mask, and the service's
// LSDB view with the benchmark's ground truth. pc_length.mean is taken over
// the demands those fails rerouted.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the separate traced
// run: it times each call into a layer's public functions, replays each
// timed event's affected demands through the spf/graph/core/persist kernels
// under the event's mask (checking that each replay yields exactly the
// route the service installed), enables obs::Tracer on every other
// fail/recover pair (the other half in the next pass), writes the Chrome
// trace, and prints the per-layer metrics.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; a human-readable table goes to stderr. Exit status 1 means a
// correctness failure, 2 bad usage.
//
// Usage: restore_bench --workload isp_flap|as_flap|isp_durable --seed N
//                      --seconds S --trace 0|1 --out-dir DIR
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "graph/path_arena.hpp"
#include "lsdb/lsdb.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/format.hpp"
#include "persist/io.hpp"
#include "persist/store.hpp"
#include "service/service.hpp"
#include "spf/incremental.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "spf/tree.hpp"
#include "spf/workspace.hpp"
#include "topo/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef RBPC_BENCH_BUILD_TYPE
#define RBPC_BENCH_BUILD_TYPE "unknown"
#endif

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
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkers = 2;
/// Pass 0 verifies the tables after the fails of its first kVerifiedPairs
/// pairs (replaying their rerouted demands; the provisioned and the final
/// table are replayed in full).
constexpr std::size_t kVerifiedPairs = 150;
/// The paper evaluates on one snapshot per topology class, so each
/// workload's stand-in graph and demand set come from a fixed seed; --seed
/// draws the event script. Drawing the graph from --seed moved the reroutes
/// per event by +-20% between seeds. Drawing the demands from it moved
/// as_flap's event p99 between 8 and 11 ms, because the demand set decides
/// how many demands the busiest links carry.
constexpr std::uint64_t kInputSeed = 1;
/// Fail/recover pairs between snapshot rotations of isp_durable's store and
/// of the traced run's replay store (~7,000 WAL records on the ISP graph).
constexpr std::size_t kRotatePairs = 25;

/// setup_s is the median of the kept set-up and spare ones spread over the
/// run: on a shared 4-vCPU VM the CPU speed moved between two levels ~1.6x
/// apart every few seconds, so set-ups bunched at the start report
/// whichever level it was. Cheap spares run between timed pairs (the
/// service idles there); expensive ones run after the kept service is
/// destroyed, so two large services never coexist.
struct WorkloadSpec {
  const char* name;
  bool as_graph;           ///< AS stand-in (4,746 nodes); else ISP (~200)
  std::size_t demands;
  bool durable;            ///< persistence plane on (store on disk)
  /// Fail/recover pairs in one script pass. The p99 over the script's
  /// events is set by its few heaviest events, so a short script's p99
  /// followed the script's draw; longer scripts average the mix.
  std::size_t pairs;
  std::size_t interleaved_setups;  ///< spare set-ups spread over the window
  std::size_t end_setups;  ///< spare set-ups after the kept service is gone
};

constexpr WorkloadSpec kWorkloads[] = {
    {"isp_flap", false, 2000, false, 1000, 9, 0},
    {"as_flap", true, 2000, false, 1200, 0, 2},
    // isp_flap's demands plus persistence: with 1,000 demands the median
    // event sat ~4 quiesce() polling steps out, and p50 jumped a whole step
    // (25%) between seeds.
    {"isp_durable", false, 2000, true, 1000, 9, 0},
};

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// 0 for a layer the workload does not exercise (persist off).
double quantile(const QuantileSketch& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 1;
};

/// Service counters over one pass of the event script. A closed loop makes
/// every field a pure function of (seed, script): equal across passes and
/// across runs of the same seed.
struct PassCounts {
  std::uint64_t events = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t installs = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t deferred = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

PassCounts counts_between(const ServiceStats& a, const ServiceStats& b,
                          std::uint64_t events) {
  return PassCounts{events,
                    b.reroutes - a.reroutes,
                    b.installs - a.installs,
                    b.revalidations - a.revalidations,
                    b.deferred - a.deferred,
                    b.wal_appends - a.wal_appends,
                    b.wal_bytes - a.wal_bytes};
}

bool same_route(const core::Restoration& a, const core::Restoration& b) {
  return a.backup == b.backup && a.decomposition == b.decomposition;
}

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
        bool trace, std::string out_dir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        out_dir_(std::move(out_dir)) {}

  int run();

 private:
  struct Event {
    EdgeId edge = 0;
    bool up = false;
  };

  /// One set-up repetition (topology generation, demand sampling, service
  /// construction with persistence init), timed. The kept repetition's
  /// graph, demands and service become the run's; the others are dropped.
  void set_up(bool keep);
  void make_script();
  /// Ingest + quiesce of script event `i` (timings recorded when `timed`).
  void run_event(std::size_t i, bool timed);
  /// One fail/recover pair of the script (pass 0 when `!timed`).
  void run_pair(std::size_t p, bool timed);
  /// Verifies the whole FEC table and the LSDB view against the truth.
  /// `rerouted` lists the demands the last fail moved; they (every demand
  /// when `full`) are compared with the serial replay of the current mask,
  /// the rest with the verified provisioned table — a canonical route that
  /// avoids the failed link stays canonical. PC lengths of `rerouted`
  /// feed pc_length.mean.
  void verify(const std::vector<std::uint32_t>& rerouted, bool full);
  /// Traced run: replays the event's affected demands through the kernels.
  void replay_event(const Event& ev, bool timed);
  void print_result(const std::vector<Metric>& metrics) const;
  /// A snapshot with no links down and no demands (the replay store's).
  persist::SnapshotState empty_snapshot() const {
    persist::SnapshotState s;
    s.num_edges = static_cast<std::uint32_t>(g_->num_edges());
    return s;
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string out_dir_;

  // Inputs (rebuilt identically by every set-up repetition). io_ is the
  // benchmark's own handle on the disk (store wipes, the replay store); each
  // service owns another FileIo.
  persist::FileIo io_;
  std::unique_ptr<Graph> g_;
  std::vector<Demand> demands_;
  std::string store_dir_;
  std::unique_ptr<RestorationService> svc_;
  std::vector<core::Restoration> baseline_;
  /// Demands whose baseline route uses each edge: the affected set of a
  /// fail (and, the table being back at baseline, of its recover).
  std::vector<std::vector<std::uint32_t>> edge_demands_;
  std::vector<Event> script_;
  std::vector<std::uint32_t> by_source_;  ///< demand ids sorted by source
  std::vector<std::uint64_t> gens_;
  FailureMask truth_;

  // Benchmark-side references: the serial replay's base set (tree cache
  // bounded, so the benchmark's memory stays small next to the service's) and,
  // in the traced run, the per-layer replay's (unbounded, warm like the
  // service's own).
  std::unique_ptr<spf::DistanceOracle> verify_oracle_;
  std::unique_ptr<core::CanonicalBaseSet> verify_base_;
  std::unique_ptr<spf::DistanceOracle> oracle_;
  std::unique_ptr<core::CanonicalBaseSet> base_;

  // Set-up timings (one sample per repetition).
  QuantileSketch setup_s_, generate_s_, provision_s_;

  // Outcome accounting.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t tables_verified_ = 0;
  std::uint64_t tables_failed_ = 0;
  std::uint64_t replay_mismatches_ = 0;
  double pc_sum_ = 0.0;
  std::uint64_t pc_count_ = 0;

  // Timed-window samples. event_us_[i] holds script event i's time in each
  // timed pass, event_reroutes_[i] its (deterministic) reroute count.
  std::vector<QuantileSketch> event_us_;
  std::vector<std::uint64_t> event_reroutes_;
  std::size_t timed_events_ = 0;
  std::size_t passes_ = 0;  ///< completed timed passes
  QuantileSketch ingest_us_, quiesce_us_;
  /// Traced run: script event i's times with the tracer on and off.
  std::vector<StatAccumulator> traced_us_, untraced_us_;
  bool tracer_on_ = false;

  // Per-layer replay samples (traced run, timed passes only).
  spf::SpfWorkspace ws_;
  spf::ShortestPathTree unfailed_, repaired_, scratch_tree_;
  graph::PathArena arena_;
  core::DecompositionRef dec_;
  core::RestoreScratch restore_scratch_;
  std::unique_ptr<persist::PersistentStore> replay_store_;
  QuantileSketch snapshot_ns_, repair_us_, scratch_us_, extract_ns_,
      decompose_us_, restore_us_, append_us_;
  StatAccumulator orphaned_;
  std::uint64_t replayed_trees_ = 0, repaired_trees_ = 0;
  double kernel_ns_ = 0.0;  ///< replayed kernel time, timed events
  double ingest_ns_ = 0.0, event_ns_ = 0.0;
  std::size_t oracle_spf_runs_ = 0;
};

void Bench::set_up(bool keep) {
  const std::string dir = store_dir_ + (keep ? "" : "-spare");
  if (spec_.durable) persist::PersistentStore::wipe(io_, dir);

  const auto t0 = Clock::now();
  Rng topo_rng(kInputSeed);
  auto g = std::make_unique<Graph>(spec_.as_graph
                                       ? topo::make_as_like(topo_rng)
                                       : topo::make_isp_like(topo_rng));
  const auto t1 = Clock::now();
  Rng rng(kInputSeed + 1);
  std::vector<Demand> demands;
  while (demands.size() < spec_.demands) {
    const auto s = static_cast<NodeId>(rng.below(g->num_nodes()));
    const auto t = static_cast<NodeId>(rng.below(g->num_nodes()));
    if (s != t) demands.push_back(Demand{s, t});
  }
  ServiceOptions options;
  options.workers = kWorkers;
  // Room for every demand: a closed loop never overloads the queue, so
  // deferral (a timing-dependent rung) stays out of the work counts.
  options.queue_capacity = spec_.demands;
  if (spec_.durable) {
    options.persist.dir = dir;
    // Every WAL record is still a write(2) to the on-disk store, but not an
    // fsync: on the shared virtual disk the benchmark was built on, fsync
    // latency had minute-long episodes that tripled the event p99.
    options.persist.sync_each_record = false;
    // No background rotation: a snapshot rotation holds the WAL lock for a
    // whole capture, and landing at a time-dependent point it stalled a
    // random share of events (event p99 moved 2x between runs). The benchmark
    // rotates with checkpoint() between pairs instead (run_pair).
    options.persist.maintenance_interval_us = 0;
  }
  const auto t2 = Clock::now();
  auto svc = std::make_unique<RestorationService>(*g, demands, options);
  const auto t3 = Clock::now();
  setup_s_.add(ns_between(t0, t3) / 1e9);
  generate_s_.add(ns_between(t0, t1) / 1e9);
  provision_s_.add(ns_between(t2, t3) / 1e9);
  if (keep) {
    g_ = std::move(g);
    demands_ = std::move(demands);
    svc_ = std::move(svc);
  }
}

void Bench::make_script() {
  baseline_ = svc_->routes();
  edge_demands_.assign(g_->num_edges(), {});
  for (std::size_t d = 0; d < baseline_.size(); ++d) {
    for (const EdgeId e : baseline_[d].backup.edges()) {
      edge_demands_[e].push_back(static_cast<std::uint32_t>(d));
    }
  }
  // Which link fails follows "the route of a random demand, a random link
  // on it": link e is hit with probability w_e / W, w_e summing 1/hops over
  // the demands routed across e. The pairs are drawn by systematic sampling
  // over a seed-shuffled link order (one random offset, P equally spaced
  // points on the cumulative weight), which keeps those probabilities but
  // not the draw-to-draw variance of the script's mix; the script is then
  // shuffled. The stream is separate from the demand draws.
  Rng rng(seed_ ^ 0x5EEDF00DCAFEULL);
  std::vector<double> weight(g_->num_edges(), 0.0);
  double total = 0.0;
  for (const core::Restoration& r : baseline_) {
    for (const EdgeId e : r.backup.edges()) {
      weight[e] += 1.0 / static_cast<double>(r.backup.hops());
    }
    if (r.restored()) total += 1.0;
  }
  std::vector<EdgeId> order;
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    if (weight[e] > 0.0) order.push_back(e);
  }
  rng.shuffle(order);
  const double step = total / static_cast<double>(spec_.pairs);
  double next = rng.uniform() * step, cum = 0.0;
  std::vector<EdgeId> picks;
  for (const EdgeId e : order) {
    cum += weight[e];
    for (; next < cum && picks.size() < spec_.pairs; next += step) {
      picks.push_back(e);
    }
  }
  rng.shuffle(picks);
  for (const EdgeId e : picks) {
    script_.push_back(Event{e, false});
    script_.push_back(Event{e, true});
  }
  event_us_.resize(script_.size());
  event_reroutes_.resize(script_.size());
  traced_us_.resize(script_.size());
  untraced_us_.resize(script_.size());
  gens_.assign(g_->num_edges(), 0);
  by_source_.resize(demands_.size());
  for (std::uint32_t d = 0; d < by_source_.size(); ++d) by_source_[d] = d;
  std::stable_sort(by_source_.begin(), by_source_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return demands_[a].src < demands_[b].src;
                   });
}

void Bench::run_event(std::size_t i, bool timed) {
  const Event& ev = script_[i];
  const lsdb::LinkEvent lsa{ev.edge, ev.up, ++gens_[ev.edge]};
  if (ev.up) {
    truth_.restore_edge(ev.edge);
  } else {
    truth_.fail_edge(ev.edge);
  }
  const ServiceStats before = timed ? svc_->stats() : ServiceStats{};
  const auto t0 = Clock::now();
  const bool applied = svc_->ingest(lsa);
  const auto t1 = Clock::now();
  svc_->quiesce();
  const auto t2 = Clock::now();
  ++attempted_;
  if (!applied) {
    ++failed_;
    std::cerr << "FAILED: LSA for edge " << ev.edge << " was discarded\n";
  }
  if (!timed) return;
  const double total = ns_between(t0, t2);
  event_us_[i].add(total / 1e3);
  event_reroutes_[i] = svc_->stats().reroutes - before.reroutes;
  ++timed_events_;
  ingest_us_.add(ns_between(t0, t1) / 1e3);
  quiesce_us_.add(ns_between(t1, t2) / 1e3);
  if (trace_) (tracer_on_ ? traced_us_ : untraced_us_)[i].add(total / 1e3);
  event_ns_ += total;
  ingest_ns_ += ns_between(t0, t1);
}

void Bench::run_pair(std::size_t p, bool timed) {
  if (trace_ && timed) {
    // Tracer on for every other pair, and for the other half in the next
    // pass, so that events are timed both ways (obs.trace_overhead_pct).
    tracer_on_ = ((p + passes_) % 2) == 0;
    if (tracer_on_) {
      obs::Tracer::global().enable();
    } else {
      obs::Tracer::global().disable();
    }
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const Event& ev = script_[2 * p + i];
    run_event(2 * p + i, timed);
    if (!timed && !ev.up && p < kVerifiedPairs) {
      verify(edge_demands_[ev.edge], /*full=*/false);
    }
    if (trace_ && (timed || p < kVerifiedPairs)) replay_event(ev, timed);
  }
  // Snapshot rotation every kRotatePairs pairs, between events; it keeps
  // the WAL files small.
  if (p % kRotatePairs == kRotatePairs - 1) {
    if (spec_.durable) svc_->checkpoint();
    if (replay_store_ != nullptr) replay_store_->rotate(empty_snapshot());
  }
}

void Bench::verify(const std::vector<std::uint32_t>& rerouted, bool full) {
  ++tables_verified_;
  ++attempted_;
  std::size_t diffs = 0;
  const std::vector<core::Restoration> table = svc_->routes();
  std::vector<char> replay(table.size(), full ? 1 : 0);
  for (const std::uint32_t d : rerouted) {
    replay[d] = 1;
    if (table[d].restored()) {
      pc_sum_ += static_cast<double>(table[d].pc_length());
      ++pc_count_;
    }
  }
  // Source order keeps the replay's bounded tree cache warm.
  for (const std::uint32_t d : by_source_) {
    if (replay[d] == 0) {
      if (!same_route(table[d], baseline_[d])) ++diffs;
      continue;
    }
    const core::Restoration want = core::source_rbpc_restore(
        *verify_base_, demands_[d].src, demands_[d].dst, truth_);
    if (!same_route(want, table[d])) ++diffs;
  }
  const service::ShardedLsdb::Snapshot view = svc_->lsdb().snapshot();
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    if (view.edge_failed(e) != truth_.edge_failed(e) ||
        view.generation(e) != gens_[e]) {
      ++diffs;
    }
  }
  if (diffs > 0) {
    ++tables_failed_;
    ++failed_;
    std::cerr << "FAILED: verified table " << tables_verified_ << " has "
              << diffs << " entries differing from the serial replay\n";
  }
}

void Bench::replay_event(const Event& ev, bool timed) {
  const Graph& g = *g_;
  const spf::SpfOptions opts{.metric = spf::Metric::Hops, .padded = true};
  FailureMask mask;
  if (!ev.up) mask.fail_edge(ev.edge);

  const auto s0 = Clock::now();
  { const service::ShardedLsdb::Snapshot snap = svc_->lsdb().snapshot(); }
  const auto s1 = Clock::now();
  if (timed) snapshot_ns_.add(ns_between(s0, s1));

  double kernel_ns = 0.0;
  for (const std::uint32_t d : edge_demands_[ev.edge]) {
    const NodeId src = demands_[d].src;
    const NodeId dst = demands_[d].dst;
    // The benchmark's own unfailed tree, copied out of its oracle untimed.
    unfailed_ = oracle_->padded_tree(src);
    const spf::ShortestPathTree* tree = &unfailed_;
    if (!ev.up) {
      spf::RepairReport report;
      const auto a = Clock::now();
      spf::repair_tree_into(g, unfailed_, mask, opts, ws_, repaired_, {},
                            &report);
      const auto b = Clock::now();
      spf::shortest_tree_into(g, src, mask, opts, ws_, scratch_tree_);
      const auto c = Clock::now();
      tree = &repaired_;
      if (timed) {
        repair_us_.add(ns_between(a, b) / 1e3);
        scratch_us_.add(ns_between(b, c) / 1e3);
        ++replayed_trees_;
        if (report.kind == spf::RepairKind::kRepaired) {
          ++repaired_trees_;
          orphaned_.add(static_cast<double>(report.orphaned));
        }
        kernel_ns += ns_between(a, b);
      }
    }

    core::Restoration replayed;
    arena_.clear();
    if (tree->reachable(dst)) {
      const auto a = Clock::now();
      const graph::PathRef ref = tree->path_to_ref(g, dst, arena_);
      const auto b = Clock::now();
      core::greedy_decompose_into(*base_, arena_, ref, dec_);
      const auto c = Clock::now();
      replayed.backup = arena_.to_path(g, ref);
      replayed.decomposition = dec_.materialize(g, arena_);
      if (timed) {
        extract_ns_.add(ns_between(a, b));
        decompose_us_.add(ns_between(b, c) / 1e3);
        kernel_ns += ns_between(a, c);
      }
    }

    const auto r0 = Clock::now();
    core::source_rbpc_restore_into(*base_, src, dst, mask, restore_scratch_);
    const auto r1 = Clock::now();
    if (timed) restore_us_.add(ns_between(r0, r1) / 1e3);

    if (replay_store_ != nullptr) {
      persist::WalRecord wr;
      wr.type = persist::WalType::kFecInstall;
      wr.fec.demand = d;
      wr.fec.stamp = gens_[ev.edge];
      wr.fec.nodes.assign(replayed.backup.nodes().begin(),
                          replayed.backup.nodes().end());
      wr.fec.edges.assign(replayed.backup.edges().begin(),
                          replayed.backup.edges().end());
      const auto a = Clock::now();
      replay_store_->append(wr);
      const auto b = Clock::now();
      if (timed) {
        append_us_.add(ns_between(a, b) / 1e3);
        if (spec_.durable) kernel_ns += ns_between(a, b);
      }
    }

    // Cross-check: the replay must reproduce the installed route exactly,
    // which proves it timed the same work the service did.
    ++attempted_;
    const core::Restoration installed = svc_->route(d);
    if (!same_route(replayed, installed) ||
        !same_route(restore_scratch_.materialize(g), installed)) {
      ++replay_mismatches_;
      ++failed_;
      std::cerr << "FAILED: replay of demand " << d << " differs from the "
                << "installed route\n";
    }
  }
  if (timed) kernel_ns_ += kernel_ns;
}

int Bench::run() {
  const auto run_start = Clock::now();
  std::cerr << "restore_bench: workload " << spec_.name << ", seed " << seed_
            << ", " << seconds_ << " s, trace " << (trace_ ? 1 : 0) << "\n"
            << "machine: nproc " << std::thread::hardware_concurrency()
            << ", build " << RBPC_BENCH_BUILD_TYPE << ", obs compiled "
            << (obs::kObsEnabled ? "in" : "out") << ", tracer "
            << (trace_ ? "on for half the timed pairs" : "off") << ", "
            << kWorkers << " reroute workers + 1 ingest thread\n";

  if (spec_.durable) store_dir_ = out_dir_ + "/store-" + spec_.name;
  set_up(/*keep=*/true);
  const auto setup_end = Clock::now();
  make_script();
  std::cerr << "topology: " << g_->num_nodes() << " nodes, "
            << g_->num_edges() << " links; " << demands_.size()
            << " demands; script " << spec_.pairs << " fail/recover pairs\n";
  if (spec_.durable) {
    std::cerr << "store: on disk in " << store_dir_ << " (FileIo), a write(2) "
              << "per WAL record, no fsync per record\n";
  }

  verify_oracle_ = std::make_unique<spf::DistanceOracle>(
      *g_, FailureMask{}, spf::Metric::Hops, 0, std::size_t{64} << 20);
  verify_base_ = std::make_unique<core::CanonicalBaseSet>(*verify_oracle_);
  verify({}, /*full=*/true);  // the provisioned table
  const double verify_s = ns_between(setup_end, Clock::now()) / 1e9;

  if (trace_) {
    // The replay base set is provisioned like the service's: decomposing
    // every baseline warms its oracle before the first replayed event.
    oracle_ = std::make_unique<spf::DistanceOracle>(*g_, FailureMask{},
                                                    spf::Metric::Hops);
    base_ = std::make_unique<core::CanonicalBaseSet>(*oracle_);
    for (const core::Restoration& r : baseline_) {
      if (r.restored()) core::greedy_decompose(*base_, r.backup);
    }
    obs::Tracer::global().set_max_events_per_thread(std::size_t{1} << 15);
    // The append kernel is timed on every workload; only isp_durable's
    // service pays it, so only there does it count toward layers.coverage.
    const std::string dir = out_dir_ + "/replay-store-" + spec_.name;
    persist::PersistentStore::wipe(io_, dir);
    replay_store_ = std::make_unique<persist::PersistentStore>(
        io_, persist::StoreOptions{dir, /*sync_each_record=*/false});
    replay_store_->recover();
    replay_store_->rotate(empty_snapshot());
  }

  // Pass 0: untimed warm-up that fixes the run's work counts and hosts the
  // mid-failure table checks.
  const std::size_t pairs = spec_.pairs;
  const auto pass0_start = Clock::now();
  const ServiceStats s0 = svc_->stats();
  const std::size_t views0 = svc_->tree_pool().views_created();
  const std::size_t hits0 = svc_->tree_pool().view_hits();
  const std::size_t evicted0 = svc_->tree_pool().views_evicted();
  for (std::size_t p = 0; p < pairs; ++p) {
    run_pair(p, /*timed=*/false);
  }
  const PassCounts pass0 = counts_between(s0, svc_->stats(), 2 * pairs);
  const std::size_t views_created = svc_->tree_pool().views_created() - views0;
  const std::size_t view_hits = svc_->tree_pool().view_hits() - hits0;
  const std::size_t views_evicted =
      svc_->tree_pool().views_evicted() - evicted0;
  if (trace_) oracle_spf_runs_ = oracle_->spf_runs();
  const double pass0_s = ns_between(pass0_start, Clock::now()) / 1e9;

  // Timed passes: repeat the script until the window closes.
  std::size_t pass_mismatches = 0;
  ServiceStats pass_start = svc_->stats();
  const auto window = std::chrono::nanoseconds(
      static_cast<std::int64_t>(seconds_ * 1e9));
  const auto start = Clock::now();
  auto deadline = start + window;
  std::size_t interleaved = 0;
  for (std::size_t p = 0; Clock::now() < deadline;) {
    // Spread set-ups evenly over the window; the time they take extends it.
    if (interleaved < spec_.interleaved_setups &&
        Clock::now() - start >=
            (window * (interleaved + 1)) / (spec_.interleaved_setups + 1)) {
      const auto a = Clock::now();
      set_up(/*keep=*/false);
      ++interleaved;
      deadline += Clock::now() - a;
    }
    run_pair(p, /*timed=*/true);
    if (++p == pairs) {
      p = 0;
      ++passes_;
      const ServiceStats now = svc_->stats();
      if (!(counts_between(pass_start, now, 2 * pairs) == pass0)) {
        ++pass_mismatches;
        ++failed_;
        std::cerr << "FAILED: timed pass " << passes_
                  << " did not repeat pass 0's work counts\n";
      }
      pass_start = now;
    }
  }
  const double timed_s = ns_between(start, Clock::now()) / 1e9;
  obs::Tracer::global().disable();

  // Final table: every pair recovered, so the mask is empty again.
  const auto final_start = Clock::now();
  verify({}, /*full=*/true);
  const double final_s = ns_between(final_start, Clock::now()) / 1e9;
  svc_.reset();
  for (std::size_t i = 0; i < spec_.end_setups; ++i) set_up(/*keep=*/false);
  const double rss = peak_rss_mib();

  std::vector<Metric> metrics;
  const auto ev = static_cast<double>(pass0.events);
  if (!trace_) {
    // Over the script's events, each at its median time across the timed
    // passes; reroutes_per_s is one pass's reroutes over those times summed.
    QuantileSketch typical;
    std::vector<double> typical_us;
    double busy_s = 0.0, reroutes = 0.0;
    for (std::size_t i = 0; i < script_.size(); ++i) {
      if (event_us_[i].empty()) continue;  // window shorter than one pass
      const double us = event_us_[i].median();
      typical.add(us);
      typical_us.push_back(us);
      busy_s += us / 1e6;
      reroutes += static_cast<double>(event_reroutes_[i]);
    }
    // The p50 is the mean of the events between the 40th and 60th
    // percentiles. Event times sit on quiesce()'s polling comb (~130 us
    // teeth), so a plain median jumped a whole tooth (~15% on isp_flap)
    // when the host's speed drifted by a few percent.
    const double lo = quantile(typical, 0.4), hi = quantile(typical, 0.6);
    StatAccumulator mid;
    for (const double us : typical_us) {
      if (us >= lo && us <= hi) mid.add(us);
    }
    const std::size_t n = timed_events_;
    metrics.push_back({"event_restore_us.p50", "us", mid.empty() ? 0.0 : mid.mean(), n});
    metrics.push_back({"event_restore_us.p99", "us", quantile(typical, 0.99), n});
    metrics.push_back({"reroutes_per_s", "1/s", ratio(reroutes, busy_s), n});
    metrics.push_back({"setup_s", "s", quantile(setup_s_, 0.5), setup_s_.count()});
    metrics.push_back({"peak_rss_mb", "MiB", rss, 1});
    metrics.push_back({"pc_length.mean", "pieces",
                       ratio(pc_sum_, static_cast<double>(pc_count_)),
                       pc_count_});
  } else {
    const std::size_t reps = setup_s_.count();
    metrics.push_back({"topo.generate_s", "s", quantile(generate_s_, 0.5), reps});
    metrics.push_back({"service.provision_s", "s", quantile(provision_s_, 0.5), reps});
    const std::size_t n = ingest_us_.count();
    metrics.push_back({"service.ingest_us.p50", "us", quantile(ingest_us_, 0.5), n});
    metrics.push_back({"service.ingest_us.p99", "us", quantile(ingest_us_, 0.99), n});
    metrics.push_back({"service.quiesce_wait_us.p50", "us", quantile(quiesce_us_, 0.5), n});
    metrics.push_back({"service.quiesce_wait_us.p99", "us", quantile(quiesce_us_, 0.99), n});
    metrics.push_back({"service.reroutes_per_event", "count",
                       ratio(static_cast<double>(pass0.reroutes), ev), pass0.events});
    metrics.push_back({"service.installs_per_event", "count",
                       ratio(static_cast<double>(pass0.installs), ev), pass0.events});
    metrics.push_back({"service.useful_ratio", "ratio",
                       ratio(static_cast<double>(pass0.installs),
                             static_cast<double>(pass0.reroutes)),
                       pass0.reroutes});
    metrics.push_back({"service.revalidations", "count",
                       static_cast<double>(pass0.revalidations), pass0.events});
    metrics.push_back({"service.deferred", "count",
                       static_cast<double>(pass0.deferred), pass0.events});
    metrics.push_back({"spf.tree_pool.view_hits", "count",
                       static_cast<double>(view_hits), pass0.events});
    metrics.push_back({"spf.tree_pool.views_created", "count",
                       static_cast<double>(views_created), pass0.events});
    metrics.push_back({"spf.tree_pool.views_evicted", "count",
                       static_cast<double>(views_evicted), pass0.events});
    metrics.push_back({"lsdb.snapshot_ns.p50", "ns", quantile(snapshot_ns_, 0.5),
                       snapshot_ns_.count()});
    const std::size_t trees = repair_us_.count();
    metrics.push_back({"spf.repair_us.p50", "us", quantile(repair_us_, 0.5), trees});
    metrics.push_back({"spf.repair_us.p99", "us", quantile(repair_us_, 0.99), trees});
    metrics.push_back({"spf.scratch_us.p50", "us", quantile(scratch_us_, 0.5), trees});
    metrics.push_back({"spf.scratch_us.p99", "us", quantile(scratch_us_, 0.99), trees});
    metrics.push_back({"spf.repair_share", "ratio",
                       ratio(static_cast<double>(repaired_trees_),
                             static_cast<double>(replayed_trees_)),
                       replayed_trees_});
    metrics.push_back({"spf.orphaned_nodes.mean", "count",
                       orphaned_.empty() ? 0.0 : orphaned_.mean(),
                       orphaned_.count()});
    metrics.push_back({"graph.path_extract_ns.p50", "ns",
                       quantile(extract_ns_, 0.5), extract_ns_.count()});
    const std::size_t decs = decompose_us_.count();
    metrics.push_back({"core.decompose_us.p50", "us", quantile(decompose_us_, 0.5), decs});
    metrics.push_back({"core.decompose_us.p99", "us", quantile(decompose_us_, 0.99), decs});
    metrics.push_back({"core.oracle_spf_runs", "count",
                       static_cast<double>(oracle_spf_runs_), 1});
    metrics.push_back({"core.restore_into_us.p50", "us",
                       quantile(restore_us_, 0.5), restore_us_.count()});
    const std::size_t apps = append_us_.count();
    metrics.push_back({"persist.append_us.p50", "us", quantile(append_us_, 0.5), apps});
    metrics.push_back({"persist.append_us.p99", "us", quantile(append_us_, 0.99), apps});
    metrics.push_back({"persist.wal_appends_per_event", "count",
                       ratio(static_cast<double>(pass0.wal_appends), ev), pass0.events});
    metrics.push_back({"persist.wal_bytes_per_event", "bytes",
                       ratio(static_cast<double>(pass0.wal_bytes), ev), pass0.events});
    // Over the events timed both with the tracer on and off, so both sides
    // are the same mix of events.
    double traced = 0.0, untraced = 0.0;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < script_.size(); ++i) {
      if (traced_us_[i].empty() || untraced_us_[i].empty()) continue;
      traced += traced_us_[i].mean();
      untraced += untraced_us_[i].mean();
      ++matched;
    }
    metrics.push_back({"obs.trace_overhead_pct", "%",
                       100.0 * ratio(traced - untraced, untraced), matched});
    metrics.push_back({"layers.coverage", "ratio",
                       ratio(kernel_ns_ / static_cast<double>(kWorkers) + ingest_ns_,
                             event_ns_),
                       timed_events_});

    const std::string path = out_dir_ + "/trace-" + spec_.name + "-" +
                             std::to_string(seed_) + ".json";
    std::ofstream(path) << obs::Tracer::global().to_chrome_json();
    std::cerr << "chrome trace: " << path << " ("
              << obs::Tracer::global().dropped() << " events dropped past the "
              << "per-thread cap)\n";
  }

  std::cerr << "\n"
            << "phases: whole run " << ns_between(run_start, Clock::now()) / 1e9
            << " s, provisioned-table check " << verify_s
            << " s, pass 0 " << pass0_s << " s, final check " << final_s
            << " s\n"
            << "timed window " << timed_s << " s: " << timed_events_
            << " events over " << passes_ << " complete script passes ("
            << pass_mismatches << " count mismatches)\n"
            << "pass-0 counts: " << pass0.events << " events, "
            << pass0.reroutes << " reroutes, " << pass0.installs
            << " installs, " << pass0.revalidations << " revalidations, "
            << pass0.deferred << " deferred, " << pass0.wal_appends
            << " WAL appends, " << pass0.wal_bytes << " WAL bytes\n"
            << "verified tables: " << tables_verified_ << ", differing "
            << tables_failed_ << " (failed_ratio "
            << ratio(static_cast<double>(tables_failed_),
                     static_cast<double>(tables_verified_))
            << ")";
  if (trace_) std::cerr << "; replay mismatches " << replay_mismatches_;
  std::cerr << "\n\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-32s %-7s %9s %16s\n", "metric", "unit",
                "samples", "value");
  std::cerr << line;
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "%-32s %-7s %9zu %16.4f\n",
                  m.name.c_str(), m.unit.c_str(), m.samples, m.value);
    std::cerr << line;
  }
  print_result(metrics);
  return failed_ == 0 ? 0 : 1;
}

void Bench::print_result(const std::vector<Metric>& metrics) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    const std::string name = args.get_string("workload", "");
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
      if (name == w.name) spec = &w;
    }
    if (spec == nullptr) {
      std::cerr << "restore_bench: unknown --workload '" << name
                << "' (isp_flap, as_flap, isp_durable)\n";
      return 2;
    }
    const std::string out_dir = args.get_string("out-dir", "");
    if (out_dir.empty()) {
      std::cerr << "restore_bench: --out-dir is required\n";
      return 2;
    }
    Bench bench(*spec, args.get_uint("seed", 1),
                args.get_double("seconds", 10.0),
                args.get_uint("trace", 0) != 0, out_dir);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "restore_bench: " << e.what() << "\n";
    return 2;
  }
}
