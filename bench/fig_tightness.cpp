// Reproduces the paper's theory figures as measurements:
//   Figure 2 — the comb shows Theorem 1 tight (k+1 pieces after k failures)
//   Figure 3 — the weighted chain shows Theorem 2 tight (k+1 paths + k edges)
//   Figure 4 — a router failure forcing ~(n-2)/2 concatenations
//   Figure 5 — the directed counterexample (~(n-2)/3 pieces after 1 failure)
//
// Flags: --max-k N (default 8), --star-n N, --directed-m N
#include <iostream>

#include "core/base_set.hpp"
#include "core/decompose.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "topo/gadgets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace rbpc;
using graph::FailureMask;
using graph::Path;

core::Decomposition decompose_after(const graph::Graph& g,
                                    spf::Metric metric, graph::NodeId s,
                                    graph::NodeId t, const FailureMask& mask) {
  spf::DistanceOracle oracle(g, FailureMask{}, metric);
  core::AllPairsShortestBaseSet base(oracle);
  const Path backup = spf::shortest_path(
      g, s, t, mask, spf::SpfOptions{.metric = metric, .padded = true});
  return core::greedy_decompose(base, backup);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t max_k = args.get_uint("max-k", 8);
  const std::size_t star_n = args.get_uint("star-n", 30);
  const std::size_t directed_m = args.get_uint("directed-m", 30);

  std::cout << "Figure 2 (comb): Theorem 1 tightness — k failures need "
               "exactly k+1 base paths.\n";
  TablePrinter comb_table({"k", "pieces (measured)", "k+1 (bound)", "tight"});
  for (std::size_t k = 1; k <= max_k; ++k) {
    const auto comb = topo::make_comb(k);
    const auto d = decompose_after(comb.g, spf::Metric::Hops, comb.s, comb.t,
                                   FailureMask::of_edges(comb.spine_edges));
    comb_table.add_row({std::to_string(k), std::to_string(d.size()),
                        std::to_string(k + 1),
                        d.size() == k + 1 ? "yes" : "NO"});
  }
  std::cout << comb_table.to_text() << '\n';

  std::cout << "Figure 3 (weighted chain): Theorem 2 tightness — k+1 base "
               "paths interleaved with k non-base edges.\n";
  TablePrinter chain_table(
      {"k", "base paths", "loose edges", "bound (k+1, k)", "tight"});
  for (std::size_t k = 1; k <= max_k; ++k) {
    const auto chain = topo::make_weighted_chain(k);
    const auto d =
        decompose_after(chain.g, spf::Metric::Weighted, chain.s, chain.t,
                        FailureMask::of_edges(chain.cheap_parallel_edges));
    // Appended, not "(" + std::string: GCC 12 at -O3 misreports that form
    // as an overlapping memcpy (-Wrestrict).
    std::string bound = "(";
    bound += std::to_string(k + 1) + ", " + std::to_string(k) + ")";
    chain_table.add_row(
        {std::to_string(k), std::to_string(d.base_count()),
         std::to_string(d.edge_count()), bound,
         (d.base_count() == k + 1 && d.edge_count() == k) ? "yes" : "NO"});
  }
  std::cout << chain_table.to_text() << '\n';

  std::cout << "Figure 4 (two-level star): a single ROUTER failure forcing "
               "~(n-2)/2 concatenations.\n";
  TablePrinter star_table({"n", "pieces (measured)", "(n-2)/2 (theory)"});
  for (std::size_t n : {10ul, 20ul, star_n}) {
    const auto star = topo::make_two_level_star(n);
    const auto d = decompose_after(star.g, spf::Metric::Hops, star.s, star.t,
                                   FailureMask::of_nodes({star.hub}));
    star_table.add_row({std::to_string(n), std::to_string(d.size()),
                        std::to_string((n - 2) / 2)});
  }
  std::cout << star_table.to_text() << '\n';

  std::cout << "Figure 5 (directed): Theorem 1 fails on directed graphs — "
               "one failure forcing ~(n-2)/3 pieces.\n";
  TablePrinter dir_table({"chain hops m", "pieces (measured)",
                          "ceil(m/3) (theory)"});
  for (std::size_t m : {9ul, 18ul, directed_m}) {
    const auto gadget = topo::make_directed_counterexample(m);
    const auto d =
        decompose_after(gadget.g, spf::Metric::Hops, gadget.s, gadget.t,
                        FailureMask::of_edges({gadget.ab_edge}));
    dir_table.add_row({std::to_string(m), std::to_string(d.size()),
                       std::to_string((m + 2) / 3)});
  }
  std::cout << dir_table.to_text() << '\n';
  return 0;
}
