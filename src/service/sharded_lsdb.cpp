#include "service/sharded_lsdb.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::service {

ShardedLsdb::ShardedLsdb(std::size_t num_edges, std::size_t num_shards)
    : num_edges_(num_edges) {
  const std::size_t shards =
      std::clamp<std::size_t>(num_shards, 1, std::max<std::size_t>(1, num_edges));
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Shard s owns edges {s, s + shards, s + 2*shards, ...}.
    const std::size_t local = num_edges / shards + (s < num_edges % shards);
    auto snap = std::make_shared<ShardSnapshot>();
    snap->down.assign(local, 0);
    snap->generation.assign(local, 0);
    shard->current.store(snap.get(), std::memory_order_seq_cst);
    shard->owner = std::move(snap);
    shards_.push_back(std::move(shard));
  }
}

bool ShardedLsdb::apply(const lsdb::LinkEvent& ev) {
  require(ev.edge < num_edges_, "ShardedLsdb::apply: edge out of range");
  Shard& shard = *shards_[ev.edge % shards_.size()];
  const std::size_t local = ev.edge / shards_.size();

  std::lock_guard<std::mutex> lock(shard.writer_mu);
  const ShardSnapshot& cur = *shard.owner;
  switch (lsdb::gate_generation(ev.generation, cur.generation[local])) {
    case lsdb::GenerationVerdict::kDuplicate:
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case lsdb::GenerationVerdict::kStale:
      stale_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case lsdb::GenerationVerdict::kApply:
      break;
  }

  auto next = std::make_shared<ShardSnapshot>(cur);
  const char down = ev.up ? 0 : 1;
  if (next->down[local] != down) {
    std::vector<graph::EdgeId>& failed = next->failed;
    const auto at = std::lower_bound(failed.begin(), failed.end(), ev.edge);
    if (down != 0) {
      failed.insert(at, ev.edge);
    } else {
      failed.erase(at);
    }
    next->down[local] = down;
  }
  if (ev.generation != 0) next->generation[local] = ev.generation;

  shard.current.store(next.get(), std::memory_order_seq_cst);
  std::shared_ptr<const ShardSnapshot> old = std::move(shard.owner);
  shard.owner = std::move(next);
  epochs_.retire(std::move(old));
  // After the publish, so snapshot() at version v always sees >= v events.
  version_.fetch_add(1, std::memory_order_seq_cst);
  return true;
}

ShardedLsdb::Snapshot ShardedLsdb::snapshot() const {
  EpochManager::Guard guard = epochs_.pin();
  // Read the version floor before the shard pointers: events applied while
  // we load may already be visible in the shards, never the reverse.
  const std::uint64_t version = version_.load(std::memory_order_seq_cst);
  std::vector<const ShardSnapshot*> shards;
  shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) {
    shards.push_back(s->current.load(std::memory_order_seq_cst));
  }
  return Snapshot(std::move(guard), std::move(shards), version);
}

std::size_t ShardedLsdb::Snapshot::failed_edge_count() const {
  std::size_t n = 0;
  for (const ShardSnapshot* s : shards_) n += s->failed.size();
  return n;
}

graph::EdgeId ShardedLsdb::Snapshot::failed_edge(std::size_t i) const {
  for (const ShardSnapshot* s : shards_) {
    if (i < s->failed.size()) return s->failed[i];
    i -= s->failed.size();
  }
  require(false, "ShardedLsdb::Snapshot::failed_edge: index out of range");
  return graph::kInvalidEdge;
}

graph::FailureMask ShardedLsdb::Snapshot::to_mask() const {
  graph::FailureMask mask;
  for (const ShardSnapshot* s : shards_) {
    for (const graph::EdgeId e : s->failed) mask.fail_edge(e);
  }
  return mask;
}

}  // namespace rbpc::service
