#include "core/experiment.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/base_set.hpp"
#include "core/batch.hpp"
#include "core/restoration.hpp"
#include "spf/bypass.hpp"
#include "spf/counting.hpp"
#include "spf/oracle.hpp"
#include "spf/spf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rbpc::core {

using graph::EdgeId;
using graph::NodeId;
using graph::Path;
using graph::Weight;

namespace {

Weight metric_cost(const graph::Graph& g, const Path& p, spf::Metric metric) {
  Weight total = 0;
  for (EdgeId e : p.edges()) total += spf::metric_weight(g, e, metric);
  return total;
}

std::uint64_t splitmix_key(std::uint64_t value) {
  std::uint64_t s = value ^ 0x243F6A8885A308D3ull;
  return splitmix64(s);
}

std::uint64_t mix_router(std::uint64_t piece_hash, NodeId router) {
  std::uint64_t s = piece_hash ^ (0x1000193ull * (router + 1));
  return splitmix64(s);
}

/// SPF-tree cache bound of the storm's membership oracle (memory control
/// on the large topologies).
constexpr std::size_t kStormOracleCacheCap = 128;

/// The three base-set flavors over one shared unfailed-network oracle, with
/// selection by BaseSetKind (shared by the Table-2 and storm engines).
struct BaseSetBundle {
  spf::DistanceOracle oracle;
  CanonicalBaseSet canonical;
  AllPairsShortestBaseSet all_pairs;
  ExpandedBaseSet expanded;

  BaseSetBundle(const graph::Graph& g, spf::Metric metric, std::size_t cap)
      : oracle(g, graph::FailureMask{}, metric, cap),
        canonical(oracle),
        all_pairs(oracle),
        expanded(oracle) {}

  BasePathSet& pick(BaseSetKind kind) {
    switch (kind) {
      case BaseSetKind::AllPairs:
        return all_pairs;
      case BaseSetKind::Expanded:
        return expanded;
      case BaseSetKind::Canonical:
        break;
    }
    return canonical;
  }
};

}  // namespace

Table2Row run_table2(const graph::Graph& g, FailureClass cls,
                     const Table2Config& cfg) {
  require(g.num_nodes() >= 3, "run_table2: graph too small");
  Rng rng(cfg.seed);
  // Default is the paper's base set: one arbitrarily chosen shortest path
  // per pair ("One shortest path was chosen arbitrarily if several
  // existed") plus its subpaths — the canonical padded set realizes exactly
  // that. The other kinds serve the base-set ablation.
  BaseSetBundle bundle(g, cfg.metric, cfg.oracle_cache_cap);
  spf::DistanceOracle& oracle0 = bundle.oracle;
  BasePathSet& base = bundle.pick(cfg.base_set);

  Table2Row row;
  StatAccumulator pc_length;
  RatioOfMeans length_stretch;
  std::size_t redundancy_hits = 0;

  // ILM accounting: per-router counts of distinct base-LSP pieces used by
  // RBPC vs. distinct explicitly-provisioned backup LSPs (one per case).
  std::vector<std::uint32_t> basic_load(g.num_nodes(), 0);
  std::vector<std::uint32_t> backup_load(g.num_nodes(), 0);
  std::unordered_set<std::uint64_t> piece_router_seen;

  for (std::size_t s = 0; s < cfg.samples; ++s) {
    Rng sample_rng = rng.fork();
    const SamplePair pair = sample_pair(oracle0, sample_rng);

    // Redundancy (max): distinct shortest paths between the sampled pair.
    row.max_redundancy =
        std::max(row.max_redundancy,
                 spf::count_shortest_paths_pair(g, pair.src, pair.dst,
                                                graph::FailureMask::none(),
                                                cfg.metric));

    const Weight original_cost = metric_cost(g, pair.lsp, cfg.metric);
    const double original_hops = static_cast<double>(pair.lsp.hops());

    for (const Scenario& sc :
         scenarios_for(pair, cls, sample_rng, cfg.max_cases_per_sample)) {
      ++row.cases;
      const Restoration r =
          source_rbpc_restore(base, pair.src, pair.dst, sc.mask);
      if (!r.restored()) {
        ++row.unrestorable;
        continue;
      }
      ++row.restored;
      pc_length.add(static_cast<double>(r.pc_length()));
      row.max_pc_length = std::max(row.max_pc_length, r.pc_length());
      length_stretch.add(static_cast<double>(r.backup.hops()), original_hops);
      if (metric_cost(g, r.backup, cfg.metric) == original_cost) {
        ++redundancy_hits;
      }

      // Backup design: this case's backup route becomes one explicit LSP,
      // consuming one ILM entry at every router it traverses.
      for (NodeId v : r.backup.nodes()) ++backup_load[v];

      // RBPC design: each decomposition piece is one base LSP. Base LSPs
      // toward the same destination are label-merged (the standard MPLS
      // label-saving technique the paper invokes), so a router pays one
      // entry per distinct piece *destination* it carries, shared across
      // all cases of the experiment.
      for (const Path& piece : r.decomposition.pieces) {
        const std::uint64_t h =
            splitmix_key(static_cast<std::uint64_t>(piece.target()));
        for (NodeId v : piece.nodes()) {
          if (piece_router_seen.insert(mix_router(h, v)).second) {
            ++basic_load[v];
          }
        }
      }
    }
  }

  if (row.restored > 0) {
    row.avg_pc_length = pc_length.mean();
    row.length_stretch = length_stretch.value();
    row.redundancy =
        static_cast<double>(redundancy_hits) / static_cast<double>(row.restored);
  }

  // ILM stretch over routers that would hold at least one backup LSP.
  StatAccumulator stretch;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (backup_load[v] == 0) continue;
    stretch.add(static_cast<double>(basic_load[v]) /
                static_cast<double>(backup_load[v]));
  }
  if (!stretch.empty()) {
    row.min_ilm_stretch = stretch.min();
    row.avg_ilm_stretch = stretch.mean();
  }
  return row;
}

StormResult run_storm(const graph::Graph& g, const StormConfig& cfg) {
  require(g.num_nodes() >= 3, "run_storm: graph too small");
  require(cfg.max_failed_links >= 1,
          "run_storm: need at least one failed link per event");
  Rng rng(cfg.seed);
  BaseSetBundle bundle(g, cfg.metric, kStormOracleCacheCap);
  BasePathSet& base = bundle.pick(cfg.base_set);

  // Provision the LSP pool. Pairs may repeat sources — exactly the sharing
  // the batch engine's per-source tree cache exploits.
  std::vector<RestoreJob> pairs;
  std::vector<Path> lsps;
  pairs.reserve(cfg.provisioned);
  lsps.reserve(cfg.provisioned);
  for (std::size_t i = 0; i < cfg.provisioned; ++i) {
    Rng sample_rng = rng.fork();
    const SamplePair pair = sample_pair(bundle.oracle, sample_rng);
    pairs.push_back(RestoreJob{pair.src, pair.dst});
    lsps.push_back(pair.lsp);
  }

  BatchRestorer batch(base, BatchOptions{.threads = cfg.threads});
  StormResult out;
  StatAccumulator pc_length;
  for (std::size_t ev = 0; ev < cfg.events; ++ev) {
    Rng event_rng = rng.fork();
    const std::size_t k =
        1 + event_rng.below(std::min<std::uint64_t>(cfg.max_failed_links,
                                                    g.num_edges()));
    graph::FailureMask mask;
    for (std::uint64_t pick : event_rng.sample_distinct(g.num_edges(), k)) {
      mask.fail_edge(static_cast<EdgeId>(pick));
    }

    // Link failures keep every router alive, so every affected source is a
    // valid restoration root.
    std::vector<RestoreJob> jobs;
    for (std::size_t idx : affected_lsps(g, lsps, mask)) {
      jobs.push_back(pairs[idx]);
    }
    const std::vector<Restoration> results = batch.restore_all(mask, jobs);

    ++out.events;
    out.affected += jobs.size();
    for (const Restoration& r : results) {
      if (!r.restored()) {
        ++out.unrestorable;
        continue;
      }
      ++out.restored;
      pc_length.add(static_cast<double>(r.pc_length()));
      out.max_pc_length = std::max(out.max_pc_length, r.pc_length());
    }
  }
  if (!pc_length.empty()) out.avg_pc_length = pc_length.mean();
  out.spf_cache_hits = batch.stats().spf_cache_hits;
  out.spf_cache_misses = batch.stats().spf_cache_misses;
  return out;
}

Table3Result run_table3(const graph::Graph& g, const Table3Config& cfg) {
  Table3Result out;
  Rng rng(cfg.seed);

  std::vector<EdgeId> links;
  if (cfg.max_links == 0 || cfg.max_links >= g.num_edges()) {
    links.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) links[e] = e;
  } else {
    for (std::uint64_t pick : rng.sample_distinct(g.num_edges(), cfg.max_links)) {
      links.push_back(static_cast<EdgeId>(pick));
    }
  }

  for (EdgeId e : links) {
    ++out.evaluated;
    const Path bypass =
        spf::min_cost_bypass(g, e, graph::FailureMask::none(), cfg.metric);
    if (bypass.empty()) {
      ++out.bridges;
      continue;
    }
    out.hopcount.add(static_cast<std::int64_t>(bypass.hops()));
  }
  return out;
}

Fig10Result::Fig10Result(const Fig10Config& cfg)
    : end_route_cost(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins),
      edge_bypass_cost(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins),
      end_route_hops(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins),
      edge_bypass_hops(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins) {}

Fig10Result run_fig10(const graph::Graph& g, const Fig10Config& cfg) {
  Fig10Result out(cfg);
  Rng rng(cfg.seed);
  spf::DistanceOracle oracle0(g, graph::FailureMask{}, cfg.metric, 128);

  for (std::size_t s = 0; s < cfg.samples; ++s) {
    Rng sample_rng = rng.fork();
    const SamplePair pair = sample_pair(oracle0, sample_rng);

    for (std::size_t i = 0; i < pair.lsp.hops(); ++i) {
      graph::FailureMask mask;
      mask.fail_edge(pair.lsp.edge(i));

      // Source-routed min-cost restoration: the comparison baseline.
      const Path best = spf::shortest_path(
          g, pair.src, pair.dst, mask,
          spf::SpfOptions{.metric = cfg.metric, .padded = true});
      const Path er = end_route_path(g, cfg.metric, pair.lsp, i, mask);
      const Path eb = edge_bypass_path(g, cfg.metric, pair.lsp, i, mask);
      if (best.empty() || er.empty() || eb.empty()) {
        ++out.skipped;
        continue;
      }
      ++out.cases;

      const double best_cost =
          static_cast<double>(metric_cost(g, best, cfg.metric));
      const double best_hops = static_cast<double>(best.hops());
      out.end_route_cost.add(
          static_cast<double>(metric_cost(g, er, cfg.metric)) / best_cost);
      out.edge_bypass_cost.add(
          static_cast<double>(metric_cost(g, eb, cfg.metric)) / best_cost);
      out.end_route_hops.add(static_cast<double>(er.hops()) / best_hops);
      out.edge_bypass_hops.add(static_cast<double>(eb.hops()) / best_hops);
    }
  }
  return out;
}

}  // namespace rbpc::core
