// Chaos convergence drill: the acceptance matrix from the chaos layer.
//
// Sweeps seeds × LSA-loss rates × fault shapes (delay-jitter vs link-flap)
// on a fixed topology and runs the full chaos drill for every cell: faulty
// flood to a stale control-plane view, graceful-degradation ladder on the
// controller, ground-truth data plane, then post-quiescence convergence
// checks. The run FAILS (exit 1) when any cell reports a during-churn or
// post-quiescence invariant violation — CI archives the metrics scrape and
// treats violations as a red build, so this doubles as the convergence
// regression gate.
//
// Human-readable narration goes to stderr; stdout carries only artifacts
// explicitly requested with "-" (see bench_obs.hpp).
//
// Flags: --seed N        base seed (default 1)
//        --seeds N       seeds per matrix cell (default 20)
//        --events N      transitions per drill (default 12)
//        --ring N        ring size (default 9; the paper-gadget ring)
//        --degrade 0|1   graceful-degradation ladder on (default 1)
//        --flight-dump PATH  when any matrix cell reports a violation,
//                            write a flight dump (trace tail + reason) here
//                            so the red run ships its evidence as an
//                            artifact
//        --metrics-json PATH, --trace-out PATH, --obs-check LIST
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_obs.hpp"
#include "chaos/chaos_drill.hpp"
#include "core/controller.hpp"
#include "graph/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "spf/metric.hpp"
#include "topo/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rbpc;
  using graph::EdgeId;
  using graph::FailureMask;
  using graph::NodeId;

  const CliArgs args(argc, argv);
  const std::uint64_t base_seed = args.get_uint("seed", 1);
  const std::size_t seeds = args.get_uint("seeds", 20);
  const std::size_t events = args.get_uint("events", 12);
  const std::size_t ring = args.get_uint("ring", 9);
  const bool degrade = args.get_bool("degrade", true);
  const std::string flight_dump = args.get_string("flight-dump", "");
  const bench::ObsCli obs_cli = bench::ObsCli::from_args(args);

  const graph::Graph g = topo::make_ring(ring);
  std::cerr << "topology: " << g.summary() << "\n"
            << "matrix: " << seeds << " seeds x loss {0, 1%, 10%} x "
            << "{jitter, flap}, " << events << " events per drill\n\n";

  const std::vector<double> losses = {0.0, 0.01, 0.10};
  const std::vector<std::string> shapes = {"jitter", "flap"};

  TablePrinter table({"shape", "loss", "drills", "transitions", "probes",
                      "delivered", "retries", "loops", "lsa lost",
                      "refreshes", "partitioned", "violations"});
  std::size_t total_violations = 0;

  for (const std::string& shape : shapes) {
    for (const double loss : losses) {
      chaos::ChaosDrillConfig cfg;
      cfg.events = events;
      cfg.probes_per_event = 8;
      cfg.quiesce_probes = 40;
      cfg.faults.lsa_loss = loss;
      cfg.faults.miss_detect = loss / 2;
      if (shape == "jitter") {
        cfg.faults.lsa_jitter = 2.0;
        cfg.faults.lsa_dup = 0.1;
        cfg.faults.detect_jitter = 0.5;
      } else {
        cfg.faults.flap_count = 2;
        cfg.faults.down_dwell = 1.5;
        cfg.faults.up_dwell = 1.5;
        cfg.faults.dwell_jitter = 0.5;
      }

      std::size_t transitions = 0, probes = 0, delivered = 0, retries = 0;
      std::size_t loops = 0, lsa_lost = 0, refreshes = 0, partitioned = 0;
      std::size_t violations = 0;
      for (std::size_t s = 0; s < seeds; ++s) {
        core::RbpcController ctl(g, spf::Metric::Weighted);
        ctl.set_graceful_degradation(degrade);
        ctl.provision();
        core::DrillActions a;
        a.fail_link = [&ctl](EdgeId e) { ctl.fail_link(e); };
        a.recover_link = [&ctl](EdgeId e) { ctl.recover_link(e); };
        a.send = [&ctl](NodeId u, NodeId v) { return ctl.send(u, v); };
        a.failures = [&ctl]() -> const FailureMask& {
          return ctl.failures();
        };
        a.set_data_failures = [&ctl](const FailureMask& m) {
          ctl.network().set_failures(m);
        };

        Rng rng(base_seed * 10'000 + s);
        const chaos::ChaosReport r =
            chaos::run_chaos_drill(g, spf::Metric::Weighted, a, cfg, rng);
        transitions += r.transitions;
        probes += r.probes;
        delivered += r.delivered;
        retries += r.retries;
        loops += r.loops;
        lsa_lost += r.lsa_lost;
        refreshes += r.refresh_epochs;
        partitioned += r.partitioned ? 1 : 0;
        violations += r.during_violations.size() + r.post_violations.size();
        for (const std::string& v : r.during_violations) {
          std::cerr << "VIOLATION (during, seed " << s << ", " << shape
                    << ", loss " << loss << "): " << v << "\n";
        }
        for (const std::string& v : r.post_violations) {
          std::cerr << "VIOLATION (post, seed " << s << ", " << shape
                    << ", loss " << loss << "): " << v << "\n";
        }
      }
      total_violations += violations;
      table.add_row({shape, TablePrinter::percent(loss, 0),
                     std::to_string(seeds), std::to_string(transitions),
                     std::to_string(probes), std::to_string(delivered),
                     std::to_string(retries), std::to_string(loops),
                     std::to_string(lsa_lost), std::to_string(refreshes),
                     std::to_string(partitioned),
                     std::to_string(violations)});
    }
    table.add_separator();
  }

  std::cerr << table.to_text() << "\n";
  int rc = obs_cli.finish();
  if (total_violations > 0) {
    if (!flight_dump.empty()) {
      // The drill engine has no RestorationService (no per-worker rings),
      // so an empty recorder's dump carries no records, only the trace tail
      // and the reason — enough to see which spans ran leading up to the
      // violation.
      obs::FlightRecorder(1, 1).dump_to_file(
          flight_dump,
          "chaos acceptance matrix: " + std::to_string(total_violations) +
              " invariant violations");
    }
    std::cerr << "chaos drill FAILED: " << total_violations
              << " invariant violations\n";
    rc = 1;
  } else {
    std::cerr << "chaos drill clean: zero invariant violations\n";
  }
  return rc;
}
