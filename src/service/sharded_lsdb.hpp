// The always-on service's link-state database: one lsdb::Lsdb behind one
// writer mutex, plus an epoch-published list of the links it knows are
// down, so reroutes read the failure set without taking the lock.
//
// Writers serialize on the mutex. apply() runs the LSA through
// lsdb::Lsdb::apply (the one generation gate, so a perturbed ingest stream
// still converges newest-wins); when the link's down state flipped it
// builds the successor down list from the current one with one sorted
// insert or erase (O(k) for k down links), publishes it with one atomic
// pointer store, and retires the old list through the EpochManager.
//
// Readers never lock: Snapshot pins an epoch and loads the one list
// pointer. Every published list is the down set after some prefix of the
// applied events, so a snapshot is atomic across all links; version()
// lets callers order views and detect convergence. Generations stay off
// the read path: export_records() reads them under the lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "lsdb/lsdb.hpp"
#include "service/epoch.hpp"

namespace rbpc::service {

class ShardedLsdb {
 public:
  /// `num_edges` fixes the edge-id universe apply() accepts.
  explicit ShardedLsdb(std::size_t num_edges);

  std::size_t num_edges() const { return num_edges_; }

  /// Applies one LSA (thread-safe, any number of concurrent callers).
  /// Nonzero generations are gated newest-wins by lsdb::Lsdb::apply;
  /// returns true when the event was applied, false when it was discarded.
  bool apply(const lsdb::LinkEvent& ev);

  /// Applies persisted link records as generation-gated events, publishing
  /// the resulting down list once. Returns the number applied.
  std::size_t import_records(const std::vector<lsdb::LinkStateRecord>& records);

  /// The database's durable state (lsdb::Lsdb::export_records), read under
  /// the writer lock: one record per down link or nonzero generation.
  std::vector<lsdb::LinkStateRecord> export_records() const;

  /// Monotone count of applied events. Incremented *after* the publish, so
  /// a snapshot taken at version() == v contains at least the first v
  /// applied events.
  std::uint64_t version() const {
    return version_.load(std::memory_order_seq_cst);
  }

  std::uint64_t duplicates_discarded() const;
  std::uint64_t stale_discarded() const;

  EpochManager& epochs() { return epochs_; }
  const EpochManager& epochs() const { return epochs_; }

  /// An epoch-pinned read view: the down set after some prefix of the
  /// applied events, at least version() of them. Movable, not copyable; the
  /// pin is released on destruction. Cheap to take: one slot CAS plus one
  /// pointer load, no locks and no allocation.
  class Snapshot {
   public:
    /// O(log k) for k down links.
    bool edge_failed(graph::EdgeId e) const;
    /// Version floor: the view contains at least this many applied events.
    std::uint64_t version() const { return version_; }

    std::size_t failed_edge_count() const { return down_->size(); }
    /// The down links, ascending.
    std::span<const graph::EdgeId> failed_edges() const { return *down_; }

    /// Highest generation applied for `e`, read from the live database
    /// under its writer lock (so possibly newer than the view). Kept for
    /// perfbench/restore_bench.cpp; everything else reads export_records().
    std::uint64_t generation(graph::EdgeId e) const;

   private:
    friend class ShardedLsdb;
    Snapshot(EpochManager::Guard guard, const std::vector<graph::EdgeId>* down,
             std::uint64_t version, const ShardedLsdb* db)
        : guard_(std::move(guard)), down_(down), version_(version), db_(db) {}

    EpochManager::Guard guard_;
    const std::vector<graph::EdgeId>* down_ = nullptr;
    std::uint64_t version_ = 0;
    const ShardedLsdb* db_ = nullptr;  ///< generation() only
  };

  Snapshot snapshot() const;

 private:
  /// Publishes `next` as the current down list and retires the old one.
  /// Caller holds mu_.
  void publish_locked(std::shared_ptr<const std::vector<graph::EdgeId>> next);

  std::size_t num_edges_ = 0;
  mutable std::mutex mu_;
  lsdb::Lsdb lsdb_;  ///< guarded by mu_
  /// Owning pointer to the current down list, handed to retire() on
  /// replacement; guarded by mu_. Readers load `down_` while epoch-pinned.
  std::shared_ptr<const std::vector<graph::EdgeId>> down_owner_;
  std::atomic<const std::vector<graph::EdgeId>*> down_{nullptr};
  mutable EpochManager epochs_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace rbpc::service
