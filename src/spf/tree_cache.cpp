#include "spf/tree_cache.hpp"

#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rbpc::spf {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

TreeCache::TreeCache(const graph::Graph& g, graph::FailureMask mask,
                     SpfOptions options, TreeCacheOptions cache_options)
    : TreeCache(g, std::move(mask), options, cache_options, nullptr) {}

TreeCache::TreeCache(const graph::Graph& g, graph::FailureMask mask,
                     SpfOptions options, TreeCacheOptions cache_options,
                     TreeCache* base, IncrementalOptions incremental)
    : g_(g),
      mask_(std::move(mask)),
      options_(options),
      cache_options_(cache_options),
      base_(base),
      incremental_(incremental),
      hits_(registry().counter("cache.hit")),
      scratch_(registry().counter("cache.scratch")),
      repairs_(registry().counter("cache.repair")),
      repair_fallbacks_(registry().counter("cache.repair_fallback")),
      evictions_(registry().counter("cache.evict")),
      miss_total_(registry().counter("cache.miss")) {
  require(options_.stop_at == graph::kInvalidNode,
          "TreeCache: cached trees must be full runs (no stop_at)");
  if (cache_options_.max_entries == 0) {
    settled_ = std::make_unique<std::atomic<Entry*>[]>(g_.num_nodes());
  }
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
    graph::NodeId source, TreeOutcome* outcome) {
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
                      incremental_, &report));
    }
    if (report.kind == RepairKind::kScratch) {
      repair_fallbacks_.inc();
      if (outcome != nullptr) *outcome = TreeOutcome::kFallback;
    } else {
      repairs_.inc();
      if (outcome != nullptr) *outcome = TreeOutcome::kRepaired;
    }
    return tree;
  }
  RBPC_TRACE_SPAN("spf.full");
  auto tree = std::make_shared<ShortestPathTree>(
      shortest_tree(g_, source, mask_, options_));
  scratch_.inc();
  if (outcome != nullptr) *outcome = TreeOutcome::kScratch;
  return tree;
}

std::shared_ptr<const ShortestPathTree> TreeCache::settled_hit(
    graph::NodeId source) {
  // Announce the read on this thread's stripe before loading the slot:
  // clear() nulls slots first and then waits for both parities to drain,
  // so a reader either loads null or is still counted while it copies the
  // entry's tree (all of these accesses are seq_cst).
  ReaderCell& cell = readers_[obs::detail::stripe_index()];
  const unsigned parity = parity_.load(std::memory_order_seq_cst);
  cell.active[parity].fetch_add(1, std::memory_order_seq_cst);
  std::shared_ptr<const ShortestPathTree> tree;
  if (const Entry* entry = settled_[source].load(std::memory_order_seq_cst)) {
    tree = entry->tree;
  }
  cell.active[parity].fetch_sub(1, std::memory_order_release);
  return tree;
}

void TreeCache::publish(graph::NodeId source,
                        const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(source);
  if (it != entries_.end() && it->second == entry) {
    settled_[source].store(entry.get(), std::memory_order_seq_cst);
  }
}

std::shared_ptr<const ShortestPathTree> TreeCache::tree(
    graph::NodeId source, TreeOutcome* outcome) {
  if (outcome != nullptr) *outcome = TreeOutcome::kHit;
  if (settled_ != nullptr && source < g_.num_nodes()) {
    if (std::shared_ptr<const ShortestPathTree> tree = settled_hit(source)) {
      hits_.inc();
      return tree;
    }
  }
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[source];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }
  if (cache_options_.max_entries != 0) {
    entry->last_used.store(
        use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  // Entries are shared_ptrs, so eviction or clear() cannot invalidate the
  // one we hold; the computation runs outside the map lock so other
  // sources proceed in parallel while same-source callers block here.
  // call_once leaves the flag unset on exception, so a failed source
  // throws to every waiter and is retried by later calls.
  bool computed = false;
  std::call_once(entry->once, [&] {
    entry->tree = compute(source, outcome);
    entry->ready.store(true, std::memory_order_release);
    computed = true;
  });
  if (computed) {
    // The compute() branch already counted which kind of SPF ran (scratch
    // / repair / fallback — disjoint, misses() derives their sum); this is
    // only the registry-side aggregate.
    miss_total_.add(1);
    if (settled_ != nullptr) {
      publish(source, entry);
    } else {
      evict_over_cap();
    }
  } else {
    hits_.inc();
  }
  return entry->tree;
}

void TreeCache::evict_over_cap() {
  std::lock_guard<std::mutex> lock(mu_);
  while (entries_.size() > cache_options_.max_entries) {
    // Drop the least-recently-used settled tree. Entries still being
    // computed are skipped (their Entry is pinned by the computing thread
    // anyway); with a sane cap this transient overshoot is at most the
    // number of in-flight computations.
    auto victim = entries_.end();
    std::uint64_t victim_used = ~std::uint64_t{0};
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second->ready.load(std::memory_order_acquire)) continue;
      const std::uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used <= victim_used) {
        victim = it;
        victim_used = used;
      }
    }
    if (victim == entries_.end()) break;  // everything in flight
    entries_.erase(victim);
    evictions_.inc();
  }
}

std::size_t TreeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void TreeCache::clear() {
  std::unordered_map<graph::NodeId, std::shared_ptr<Entry>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (settled_ != nullptr) {
      for (const auto& kv : entries_) {
        // Out-of-range keys come from failed requests and were never
        // published.
        if (kv.first < g_.num_nodes()) {
          settled_[kv.first].store(nullptr, std::memory_order_seq_cst);
        }
      }
      // Grace period: a lock-free reader may still be copying a tree out of
      // an entry it loaded before the reset. Wait until both parities were
      // seen empty after it; flipping the parity first sends new readers to
      // the other side, so each wait only covers readers that started
      // before it and cannot be starved.
      for (int phase = 0; phase < 2; ++phase) {
        const unsigned old = parity_.load(std::memory_order_seq_cst);
        parity_.store(old ^ 1u, std::memory_order_seq_cst);
        for (ReaderCell& cell : readers_) {
          while (cell.active[old].load(std::memory_order_acquire) != 0) {
            std::this_thread::yield();
          }
        }
      }
    }
    dropped.swap(entries_);
  }
  // The dropped entries (and the trees no caller holds) die here, outside
  // the lock.
}

}  // namespace rbpc::spf
