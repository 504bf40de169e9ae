// Experiment engines reproducing the paper's evaluation (Section 5-6):
// Table 2 (source-router RBPC), Table 3 (bypass hopcounts) and Figure 10
// (local RBPC stretch-factor histograms). The bench binaries are thin
// wrappers that run these and print the paper-format tables.
#pragma once

#include <cstdint>

#include "core/scenario.hpp"
#include "graph/graph.hpp"
#include "spf/metric.hpp"
#include "util/histogram.hpp"

namespace rbpc::core {

// ---------------------------------------------------------------------------
// Table 2 — source-router RBPC.
// ---------------------------------------------------------------------------

/// Which base-path family the decomposition runs against.
enum class BaseSetKind {
  Canonical,  ///< one arbitrary shortest path per pair (the paper's choice)
  AllPairs,   ///< every shortest path is a base path
  Expanded,   ///< Corollary 4: canonical plus one-edge extensions
};

struct Table2Config {
  /// Number of sampled source/destination pairs. The paper used 200 for the
  /// ISP topology and 40 for the two large ones.
  std::size_t samples = 40;
  std::uint64_t seed = 1;
  spf::Metric metric = spf::Metric::Weighted;
  BaseSetKind base_set = BaseSetKind::Canonical;
  /// Cap on two-failure combinations derived from one sampled LSP.
  std::size_t max_cases_per_sample = 64;
  /// SPF-tree cache bound inside the oracle (memory control on the 40k-node
  /// topology); 0 = unlimited. Caches never influence output, only
  /// wall-clock: the run is one serial pass over the sampled pairs.
  std::size_t oracle_cache_cap = 128;
};

struct Table2Row {
  // The paper's columns.
  double min_ilm_stretch = 0.0;  ///< min over routers of basic/backup ILM size
  double avg_ilm_stretch = 0.0;  ///< average over routers
  double avg_pc_length = 0.0;    ///< mean pieces per restored backup path
  double length_stretch = 0.0;   ///< mean backup hops / mean original hops
  double redundancy = 0.0;       ///< fraction of backups with original cost
  std::uint64_t max_redundancy = 0;  ///< max #distinct shortest paths (pairs)

  // Bookkeeping.
  std::size_t cases = 0;          ///< failure cases evaluated
  std::size_t restored = 0;       ///< cases with a surviving route
  std::size_t unrestorable = 0;   ///< cases where the pair was disconnected
  std::size_t max_pc_length = 0;  ///< worst observed concatenation length
};

/// Runs the paper's Table-2 methodology for one (topology, failure class).
Table2Row run_table2(const graph::Graph& g, FailureClass cls,
                     const Table2Config& cfg);

// ---------------------------------------------------------------------------
// Table 3 — min-cost bypass hopcount distribution.
// ---------------------------------------------------------------------------

struct Table3Config {
  /// 0 = evaluate every link (the paper's ISP case); otherwise sample this
  /// many links uniformly (used for the two internet-scale topologies).
  std::size_t max_links = 0;
  std::uint64_t seed = 1;
  spf::Metric metric = spf::Metric::Weighted;
};

struct Table3Result {
  IntHistogram hopcount;       ///< bypass hopcount distribution
  std::size_t bridges = 0;     ///< links with no bypass (excluded)
  std::size_t evaluated = 0;   ///< links evaluated
};

Table3Result run_table3(const graph::Graph& g, const Table3Config& cfg);

// ---------------------------------------------------------------------------
// Figure 10 — local-RBPC stretch factors on the weighted ISP topology.
// ---------------------------------------------------------------------------

struct Fig10Config {
  std::size_t samples = 200;
  std::uint64_t seed = 1;
  spf::Metric metric = spf::Metric::Weighted;
  /// Histogram range/granularity; the paper buckets stretch at 0.1.
  double hist_lo = 0.75;
  double hist_hi = 3.05;
  std::size_t hist_bins = 23;
};

struct Fig10Result {
  BinnedHistogram end_route_cost;   ///< cost stretch vs min-cost restoration
  BinnedHistogram edge_bypass_cost;
  BinnedHistogram end_route_hops;   ///< hopcount stretch
  BinnedHistogram edge_bypass_hops;
  std::size_t cases = 0;
  std::size_t skipped = 0;  ///< disconnected / un-bypassable cases

  explicit Fig10Result(const Fig10Config& cfg);
};

Fig10Result run_fig10(const graph::Graph& g, const Fig10Config& cfg);

}  // namespace rbpc::core
