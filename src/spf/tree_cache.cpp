#include "spf/tree_cache.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

TreeCache::TreeCache(const graph::Graph& g, graph::FailureMask mask,
                     SpfOptions options, TreeCache* base)
    : g_(g),
      mask_(std::move(mask)),
      options_(options),
      base_(base),
      settled_(std::make_unique<std::atomic<const Entry*>[]>(g.num_nodes())),
      hits_(registry().counter("cache.hit")),
      scratch_(registry().counter("cache.scratch")),
      repairs_(registry().counter("cache.repair")),
      repair_fallbacks_(registry().counter("cache.repair_fallback")),
      miss_total_(registry().counter("cache.miss")) {
  require(options_.stop_at == graph::kInvalidNode,
          "TreeCache: cached trees must be full runs (no stop_at)");
  if (base_ != nullptr) {
    require(&base_->graph() == &g_,
            "TreeCache: base cache is for a different graph");
    require(base_->options().metric == options_.metric &&
                base_->options().padded == options_.padded &&
                (!options_.padded ||
                 base_->options().tiebreak == options_.tiebreak),
            "TreeCache: base cache has a different SPF flavor");
  }
}

std::shared_ptr<const ShortestPathTree> TreeCache::compute(
    graph::NodeId source, obs::Rung* rung) {
  // The repair path pays off only when there is a delta to repair; an
  // identical mask (base == this configuration) would just memcpy trees.
  if (base_ != nullptr && !mask_.empty()) {
    const std::shared_ptr<const ShortestPathTree> base_tree =
        base_->tree(source);
    RepairReport report;
    std::shared_ptr<const ShortestPathTree> tree;
    {
      RBPC_TRACE_SPAN("spf.repair");
      tree = std::make_shared<ShortestPathTree>(
          repair_tree(g_, *base_tree, mask_, options_, thread_workspace(),
                      IncrementalOptions{}, &report));
    }
    if (report.kind == RepairKind::kScratch) {
      repair_fallbacks_.inc();
      if (rung != nullptr) *rung = obs::Rung::kScratch;
    } else {
      repairs_.inc();
      if (rung != nullptr) *rung = obs::Rung::kRepaired;
    }
    return tree;
  }
  RBPC_TRACE_SPAN("spf.full");
  auto tree = std::make_shared<ShortestPathTree>(
      shortest_tree(g_, source, mask_, options_));
  scratch_.inc();
  if (rung != nullptr) *rung = obs::Rung::kScratch;
  return tree;
}

std::shared_ptr<const ShortestPathTree> TreeCache::tree(
    graph::NodeId source, obs::Rung* rung) {
  if (rung != nullptr) *rung = obs::Rung::kCached;
  // Lock-free hit: the acquire load pairs with the release store below, so
  // a non-null slot always shows the entry's finished tree. Entries are
  // never erased, so the pointer cannot dangle.
  if (source < g_.num_nodes()) {
    if (const Entry* settled =
            settled_[source].load(std::memory_order_acquire)) {
      hits_.inc();
      return settled->tree;
    }
  }
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry = &entries_[source];
  }
  // The computation runs outside the map lock so other sources proceed in
  // parallel while same-source callers block here. call_once leaves the
  // flag unset on exception, so a failed source throws to every waiter and
  // is retried by later calls.
  bool computed = false;
  std::call_once(entry->once, [&] {
    entry->tree = compute(source, rung);
    computed = true;
  });
  if (computed) {
    // The compute() branch already counted which kind of SPF ran (scratch
    // / repair / fallback — disjoint, misses() derives their sum); this is
    // only the registry-side aggregate.
    miss_total_.add(1);
    settled_[source].store(entry, std::memory_order_release);
  } else {
    hits_.inc();
  }
  return entry->tree;
}

std::size_t TreeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace rbpc::spf
