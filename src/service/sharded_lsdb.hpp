// The always-on service's link-state database: one lsdb::Lsdb behind one
// writer mutex, plus a shared, immutable list of the links it knows are
// down, so reroutes read the failure set without taking the lock.
//
// Writers serialize on the mutex. apply() runs the LSA through
// lsdb::Lsdb::apply (the one generation gate, so a perturbed ingest stream
// still converges newest-wins); when the link's down state flipped it
// builds the successor down list from the current one with one sorted
// insert or erase (O(k) for k down links) and publishes it by swapping one
// shared_ptr. The replaced list is freed when its last reader drops its
// reference, like every other immutable object the service shares
// (installed routes, tree-store trees, pool views).
//
// Readers never take the writer mutex and never wait out an apply():
// Snapshot copies the shared_ptr under a spin lock that guards nothing but
// that pointer and is held only for the copy or the publishing swap. It
// is not lock-free; neither is libstdc++'s std::atomic<std::shared_ptr>,
// which is the same spin lock, but whose load releases it with a relaxed
// RMW, so its read of the pointer is not ordered before the next store's
// write (a data race that ThreadSanitizer reports). Every published list
// is the down set after some prefix of the applied events, so a snapshot
// is atomic across all links; version() lets callers order views and
// detect convergence. Generations stay off the read path:
// export_records() reads them under the lock.
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

  /// A read view: the down set after some prefix of the applied events, at
  /// least version() of them. Movable, not copyable; it holds a reference
  /// to its list until destruction. Cheap to take: one shared_ptr copy
  /// under a spin lock, no writer lock and no allocation.
  class Snapshot {
   public:
    Snapshot(Snapshot&&) = default;
    Snapshot& operator=(Snapshot&&) = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

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
    Snapshot(std::shared_ptr<const std::vector<graph::EdgeId>> down,
             std::uint64_t version, const ShardedLsdb* db)
        : down_(std::move(down)), version_(version), db_(db) {}

    std::shared_ptr<const std::vector<graph::EdgeId>> down_;
    std::uint64_t version_ = 0;
    const ShardedLsdb* db_ = nullptr;  ///< generation() only
  };

  Snapshot snapshot() const;

 private:
  /// Replaces the current down list with `next`. Caller holds mu_.
  void publish_locked(std::shared_ptr<const std::vector<graph::EdgeId>> next);

  std::size_t num_edges_ = 0;
  mutable std::mutex mu_;
  lsdb::Lsdb lsdb_;  ///< guarded by mu_
  /// Spin lock guarding down_ alone (DownListLock in the .cpp). Writers
  /// hold mu_ too when they replace down_, so they may read it under mu_
  /// alone.
  mutable std::atomic_flag down_busy_;
  std::shared_ptr<const std::vector<graph::EdgeId>> down_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace rbpc::service
