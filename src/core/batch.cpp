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
  // Same failure state as the last batch: the view and its trees are
  // reused. A new one replaces it (the pool keeps one view).
  const std::shared_ptr<spf::TreeCache> view = trees_.cache_for(mask);

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
    std::shared_ptr<const spf::ShortestPathTree> tree;
    spf::TreeOutcome outcome = spf::TreeOutcome::kHit;
    {
      // Shared-tree lookup; a miss runs (or repairs) SPF under the mask,
      // so spf.full / spf.repair spans nest inside this one.
      RBPC_TRACE_SPAN("batch.spf");
      tree = view->tree(job.src, &outcome);
    }
    tree_outcomes_[static_cast<std::size_t>(outcome)].fetch_add(
        1, std::memory_order_relaxed);
    if (!tree->reachable(job.dst)) return;  // results[i] stays !restored()
    Restoration r;
    {
      // Materializing the backup route — the label stack the source will
      // push, in MPLS terms.
      RBPC_TRACE_SPAN("batch.stack_build");
      r.backup = tree->path_to(g, job.dst);
    }
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
  const auto count = [this](spf::TreeOutcome outcome) {
    return tree_outcomes_[static_cast<std::size_t>(outcome)].load(
        std::memory_order_relaxed);
  };
  s.spf_cache_hits = count(spf::TreeOutcome::kHit);
  s.spf_repairs = count(spf::TreeOutcome::kRepaired);
  s.spf_repair_fallbacks = count(spf::TreeOutcome::kFallback);
  s.spf_cache_misses = count(spf::TreeOutcome::kScratch) + s.spf_repairs +
                       s.spf_repair_fallbacks;
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
