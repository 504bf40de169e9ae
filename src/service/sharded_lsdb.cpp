#include "service/sharded_lsdb.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rbpc::service {

using DownList = std::vector<graph::EdgeId>;

ShardedLsdb::ShardedLsdb(std::size_t num_edges)
    : num_edges_(num_edges),
      down_owner_(std::make_shared<const DownList>()),
      down_(down_owner_.get()) {}

bool ShardedLsdb::apply(const lsdb::LinkEvent& ev) {
  require(ev.edge < num_edges_, "ShardedLsdb::apply: edge out of range");
  std::lock_guard<std::mutex> lock(mu_);
  const bool was_down = lsdb_.knows_down(ev.edge);
  if (!lsdb_.apply(ev)) return false;
  if (lsdb_.knows_down(ev.edge) != was_down) {
    auto next = std::make_shared<DownList>();
    const DownList& cur = *down_owner_;
    next->reserve(cur.size() + 1);
    const auto at = std::lower_bound(cur.begin(), cur.end(), ev.edge);
    next->insert(next->end(), cur.begin(), at);
    if (!was_down) next->push_back(ev.edge);
    next->insert(next->end(), was_down ? at + 1 : at, cur.end());
    publish_locked(std::move(next));
  }
  // After the publish, so snapshot() at version v always sees >= v events.
  version_.fetch_add(1, std::memory_order_seq_cst);
  return true;
}

std::size_t ShardedLsdb::import_records(
    const std::vector<lsdb::LinkStateRecord>& records) {
  for (const lsdb::LinkStateRecord& r : records) {
    require(r.edge < num_edges_, "ShardedLsdb::import_records: edge out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t applied = lsdb_.import_records(records);
  publish_locked(std::make_shared<const DownList>(lsdb_.view().failed_edges()));
  version_.fetch_add(applied, std::memory_order_seq_cst);
  return applied;
}

std::vector<lsdb::LinkStateRecord> ShardedLsdb::export_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lsdb_.export_records();
}

std::uint64_t ShardedLsdb::duplicates_discarded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lsdb_.duplicates_discarded();
}

std::uint64_t ShardedLsdb::stale_discarded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lsdb_.stale_discarded();
}

void ShardedLsdb::publish_locked(std::shared_ptr<const DownList> next) {
  down_.store(next.get(), std::memory_order_seq_cst);
  std::shared_ptr<const DownList> old = std::move(down_owner_);
  down_owner_ = std::move(next);
  epochs_.retire(std::move(old));
}

ShardedLsdb::Snapshot ShardedLsdb::snapshot() const {
  EpochManager::Guard guard = epochs_.pin();
  // Read the version floor before the list pointer: events applied while
  // we load may already be visible in the list, never the reverse.
  const std::uint64_t version = version_.load(std::memory_order_seq_cst);
  return Snapshot(std::move(guard), down_.load(std::memory_order_seq_cst),
                  version, this);
}

bool ShardedLsdb::Snapshot::edge_failed(graph::EdgeId e) const {
  return std::binary_search(down_->begin(), down_->end(), e);
}

graph::FailureMask ShardedLsdb::Snapshot::to_mask() const {
  graph::FailureMask mask;
  for (const graph::EdgeId e : *down_) mask.fail_edge(e);
  return mask;
}

std::uint64_t ShardedLsdb::Snapshot::generation(graph::EdgeId e) const {
  std::lock_guard<std::mutex> lock(db_->mu_);
  return db_->lsdb_.applied_generation(e);
}

}  // namespace rbpc::service
