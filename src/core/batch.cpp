#include "core/batch.hpp"

#include <algorithm>
#include <utility>

#include "core/decompose.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rbpc::core {

using graph::FailureMask;
using graph::Path;

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

BatchRestorer::BatchRestorer(BasePathSet& base, BatchOptions options)
    : base_(base),
      pool_(options.threads),
      trees_(base.graph(),
             spf::SpfOptions{.metric = base.metric(), .padded = true},
             spf::TreePoolOptions{.max_views = 1}),
      batches_(registry().counter("batch.batches")),
      jobs_(registry().counter("batch.jobs")),
      restored_(registry().counter("batch.restored")),
      unrestorable_(registry().counter("batch.unrestorable")),
      max_pc_length_gauge_(registry().gauge("batch.max_pc_length")) {}

std::vector<Restoration> BatchRestorer::restore_all(
    const FailureMask& mask, const std::vector<RestoreJob>& jobs) {
  RBPC_TRACE_SPAN("batch.restore_all");
  const graph::Graph& g = base_.graph();
  // Check preconditions up front, in job order, so the error surfaced for a
  // bad batch is the one the serial loop would have thrown first.
  for (const RestoreJob& job : jobs) {
    require(job.src < g.num_nodes() && job.dst < g.num_nodes(),
            "BatchRestorer: job endpoint out of range");
    require(mask.node_alive(job.src),
            "BatchRestorer: job source router is failed");
  }
  // The ladder reads the failure set as sorted lists, built once per batch.
  // Under an unchanged failure state the pool's one view and its trees
  // are reused across batches.
  const std::vector<graph::EdgeId> failed_edges = mask.failed_edges();
  const std::vector<graph::NodeId> failed_nodes = mask.failed_nodes();

  // Time from dispatch to a worker picking the job up — pool backlog, the
  // phase the paper's recovery-effort accounting calls queueing delay.
  static obs::Histogram queue_wait = registry().histogram("batch.queue_wait");
  const std::uint64_t dispatched_ns = obs::now_ns();

  std::vector<Restoration> results(jobs.size());
  pool_.parallel_for(jobs.size(), [&](std::size_t i) {
    if constexpr (obs::kObsEnabled) {
      queue_wait.record((obs::now_ns() - dispatched_ns) / 1000);
    }
    RBPC_TRACE_SPAN("batch.job");
    const RestoreJob& job = jobs[i];
    Restoration r;
    {
      // The ladder: a cut answer, or a shared tree under the mask (a miss
      // runs or repairs SPF, so spf.full / spf.repair spans nest here).
      RBPC_TRACE_SPAN("batch.spf");
      trees_.route(job.src, job.dst, failed_edges, failed_nodes, r.backup);
    }
    if (!r.restored()) return;  // results[i] stays !restored()
    {
      // Membership oracles cache trees of the *unfailed* network and are
      // not thread-safe; decomposition serializes here. The span covers
      // lock wait + decompose, so contention on base_mu_ is visible in the
      // trace as batch.decompose minus the nested decompose span.
      RBPC_TRACE_SPAN("batch.decompose");
      std::lock_guard<std::mutex> lock(base_mu_);
      r.decomposition = greedy_decompose(base_, r.backup);
    }
    results[i] = std::move(r);
  });

  batches_.inc();
  jobs_.add(jobs.size());
  std::size_t max_pc = max_pc_length_.load(std::memory_order_relaxed);
  for (const Restoration& r : results) {
    if (r.restored()) {
      restored_.inc();
      max_pc = std::max(max_pc, r.pc_length());
    } else {
      unrestorable_.inc();
    }
  }
  max_pc_length_.store(max_pc, std::memory_order_relaxed);
  max_pc_length_gauge_.set_max(static_cast<std::int64_t>(max_pc));
  return results;
}

BatchStats BatchRestorer::stats() const {
  BatchStats s;
  s.batches = batches_.value();
  s.jobs = jobs_.value();
  s.restored = restored_.value();
  s.unrestorable = unrestorable_.value();
  s.max_pc_length = max_pc_length_.load(std::memory_order_relaxed);
  const std::size_t views = trees_.views_created();
  s.mask_changes = views == 0 ? 0 : views - 1;
  s.spf_cache_hits = trees_.answers(obs::Rung::kCached);
  s.spf_repairs = trees_.answers(obs::Rung::kRepaired);
  s.spf_repair_fallbacks = trees_.answers(obs::Rung::kScratch);
  s.spf_cache_misses = s.spf_repairs + s.spf_repair_fallbacks;
  s.cut_routes = trees_.answers(obs::Rung::kCut);
  s.cut_fallbacks = trees_.cut_fallbacks();
  return s;
}

std::vector<std::size_t> affected_lsps(const graph::Graph& g,
                                       const std::vector<Path>& lsps,
                                       const FailureMask& mask) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lsps.size(); ++i) {
    const Path& p = lsps[i];
    if (p.empty() || p.hops() == 0) continue;
    if (!p.alive(g, mask)) out.push_back(i);
  }
  return out;
}

}  // namespace rbpc::core
