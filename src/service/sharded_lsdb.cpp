#include "service/sharded_lsdb.hpp"

#include <algorithm>
#include <thread>

#include "util/error.hpp"

namespace rbpc::service {

using DownList = std::vector<graph::EdgeId>;

namespace {

/// Holds ShardedLsdb::down_busy_ for one shared_ptr copy or swap. A spin
/// lock because the hold is a few instructions: with a std::mutex, two
/// workers snapshotting at once slept on a futex, which slowed isp_flap's
/// events (DESIGN.md §10). A waiter yields its CPU in case the holder was
/// preempted; the holder never makes a syscall.
class DownListLock {
 public:
  explicit DownListLock(std::atomic_flag& busy) : busy_(busy) {
    while (busy_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ~DownListLock() { busy_.clear(std::memory_order_release); }
  DownListLock(const DownListLock&) = delete;
  DownListLock& operator=(const DownListLock&) = delete;

 private:
  std::atomic_flag& busy_;
};

}  // namespace

ShardedLsdb::ShardedLsdb(std::size_t num_edges)
    : num_edges_(num_edges), down_(std::make_shared<const DownList>()) {}

bool ShardedLsdb::apply(const lsdb::LinkEvent& ev) {
  require(ev.edge < num_edges_, "ShardedLsdb::apply: edge out of range");
  std::lock_guard<std::mutex> lock(mu_);
  const bool was_down = lsdb_.knows_down(ev.edge);
  if (!lsdb_.apply(ev)) return false;
  if (lsdb_.knows_down(ev.edge) != was_down) {
    auto next = std::make_shared<DownList>();
    const DownList& cur = *down_;
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
  // `next` takes the replaced list and outlives `lock`, so the list is
  // released (and freed, when no snapshot holds it) after the unlock.
  const DownListLock lock(down_busy_);
  down_.swap(next);
}

ShardedLsdb::Snapshot ShardedLsdb::snapshot() const {
  // Read the version floor before the list: events applied while we load
  // may already be visible in the list, never the reverse.
  const std::uint64_t version = version_.load(std::memory_order_seq_cst);
  const DownListLock lock(down_busy_);
  return Snapshot(down_, version, this);
}

bool ShardedLsdb::Snapshot::edge_failed(graph::EdgeId e) const {
  return std::binary_search(down_->begin(), down_->end(), e);
}

std::uint64_t ShardedLsdb::Snapshot::generation(graph::EdgeId e) const {
  std::lock_guard<std::mutex> lock(db_->mu_);
  return db_->lsdb_.applied_generation(e);
}

}  // namespace rbpc::service
