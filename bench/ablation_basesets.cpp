// Ablation of the design choices DESIGN.md §5 calls out:
//   1. Base-set choice — all-pairs shortest vs canonical one-per-pair vs
//      expanded (Corollary 4): PC length and loose-edge usage under single
//      link failures on the weighted ISP topology.
//   2. Decomposition algorithm — greedy longest-prefix vs overlay-Dijkstra
//      (the paper's sparse-set fallback): piece counts and cost parity.
//
// Flags: --seed N, --samples N
#include <iostream>

#include "core/base_set.hpp"
#include "core/controller.hpp"
#include "core/decompose.hpp"
#include "core/restoration.hpp"
#include "core/scenario.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "topo/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rbpc;
  using graph::FailureMask;
  using graph::Path;

  const CliArgs args(argc, argv);
  const std::uint64_t seed = args.get_uint("seed", 1);
  const std::size_t samples = args.get_uint("samples", 100);

  Rng topo_rng(seed);
  const graph::Graph g = topo::make_isp_like(topo_rng, /*weighted=*/true);

  spf::DistanceOracle oracle(g, FailureMask{}, spf::Metric::Weighted);
  core::AllPairsShortestBaseSet all_pairs(oracle);
  core::CanonicalBaseSet canonical(oracle);
  core::ExpandedBaseSet expanded(oracle);
  core::BasePathSet* sets[] = {&all_pairs, &canonical, &expanded};

  struct SetStats {
    StatAccumulator pc;
    StatAccumulator edges;
    std::size_t worst = 0;
  };
  SetStats stats[3];

  // Decomposition-algorithm ablation (canonical set): greedy covers the
  // canonical restoration route; overlay finds a min-cost concatenation
  // directly.
  StatAccumulator greedy_pieces;
  StatAccumulator overlay_pieces;
  std::size_t cost_mismatches = 0;

  Rng rng(seed * 1000 + 29);
  std::size_t cases = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    Rng sample_rng = rng.fork();
    const core::SamplePair pair = core::sample_pair(oracle, sample_rng);
    for (const auto& sc :
         core::scenarios_for(pair, core::FailureClass::OneLink, sample_rng)) {
      const Path backup =
          spf::shortest_path(g, pair.src, pair.dst, sc.mask,
                             spf::SpfOptions{.padded = true});
      if (backup.empty()) continue;
      ++cases;
      for (int i = 0; i < 3; ++i) {
        const auto d = core::greedy_decompose(*sets[i], backup);
        stats[i].pc.add(static_cast<double>(d.size()));
        stats[i].edges.add(static_cast<double>(d.edge_count()));
        stats[i].worst = std::max(stats[i].worst, d.size());
      }
      const auto dg = core::greedy_decompose(canonical, backup);
      const auto dov =
          core::overlay_decompose(canonical, sc.mask, pair.src, pair.dst);
      greedy_pieces.add(static_cast<double>(dg.size()));
      overlay_pieces.add(static_cast<double>(dov.size()));
      if (dov.joined().cost(g) != backup.cost(g)) ++cost_mismatches;
    }
  }

  std::cout << "Ablation 1: base-set choice (weighted ISP, single link "
               "failures, " << cases << " cases).\n";
  TablePrinter t1({"base set", "avg PC length", "avg loose edges",
                   "worst PC length"});
  for (int i = 0; i < 3; ++i) {
    t1.add_row({sets[i]->name(), TablePrinter::num(stats[i].pc.mean(), 3),
                TablePrinter::num(stats[i].edges.mean(), 3),
                std::to_string(stats[i].worst)});
  }
  std::cout << t1.to_text() << '\n';
  std::cout << "expected: all-pairs <= canonical; expanded avoids loose "
               "edges entirely (Corollary 4).\n\n";

  std::cout << "Ablation 2: decomposition algorithm (canonical set).\n";
  TablePrinter t2({"algorithm", "avg pieces", "cost = optimal"});
  t2.add_row({"greedy longest-prefix",
              TablePrinter::num(greedy_pieces.mean(), 3), "by construction"});
  t2.add_row({"overlay Dijkstra", TablePrinter::num(overlay_pieces.mean(), 3),
              cost_mismatches == 0 ? "yes (all cases)"
                                   : std::to_string(cost_mismatches) +
                                         " mismatches"});
  std::cout << t2.to_text() << '\n';

  // Ablation 3: label economics of the provisioning style (the paper's
  // "labels are a scarce resource" discussion + its merging remedy).
  {
    core::RbpcController per_lsp(g, spf::Metric::Weighted);
    per_lsp.provision();
    core::RbpcController merged(g, spf::Metric::Weighted,
                                core::RbpcController::LabelPlan::Merged);
    merged.provision();
    std::cout << "Ablation 3: base-set provisioning style (ILM economics, "
                 "weighted ISP).\n";
    TablePrinter t3({"provisioning", "total ILM entries", "max per router"});
    t3.add_row({"one LSP per ordered pair",
                std::to_string(per_lsp.network().total_ilm_entries()),
                std::to_string(per_lsp.network().max_ilm_entries())});
    t3.add_row({"merged destination trees",
                std::to_string(merged.network().total_ilm_entries()),
                std::to_string(merged.network().max_ilm_entries())});
    std::cout << t3.to_text() << '\n';
    std::cout << "merging (one label per destination per router) shrinks the "
                 "switching tables by the\naverage base-path length while "
                 "supporting identical restoration by concatenation.\n";
  }
  return 0;
}
