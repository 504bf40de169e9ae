// Sharded, generation-numbered link-state database with epoch-based
// snapshot reads — the always-on service's replacement for the single
// lsdb::Lsdb view that controllers rebuild inside stop-the-world drills.
//
// Layout: edge e lives in shard e % num_shards. Each shard's state is an
// *immutable* ShardSnapshot (per-edge down flag + highest applied LSA
// generation). Writers copy the shard's current snapshot, apply the event
// (the generation gate lsdb::Lsdb::apply uses, lsdb::gate_generation, so a
// perturbed ingest stream still converges newest-wins), publish the copy
// with one atomic pointer store, and retire the old snapshot through the
// EpochManager. Writers to different shards never contend; writers to the
// same shard serialize on that shard's mutex only.
//
// Readers never lock: Snapshot pins an epoch and loads the shard pointers.
// The composite view is *per-shard consistent* but not cross-shard atomic —
// exactly the bounded-staleness regime the chaos invariants allow during
// churn; version() lets callers order views and detect convergence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/failure.hpp"
#include "graph/types.hpp"
#include "lsdb/lsdb.hpp"
#include "service/epoch.hpp"

namespace rbpc::service {

/// One shard's immutable state. `down`/`generation` are indexed by the
/// edge's shard-local index (edge / num_shards); `failed` lists the same
/// down links by global edge id, ascending, so readers enumerate the
/// failure set without scanning every link.
struct ShardSnapshot {
  std::vector<char> down;
  std::vector<std::uint64_t> generation;
  std::vector<graph::EdgeId> failed;
};

class ShardedLsdb {
 public:
  /// `num_edges` fixes the edge-id universe; `num_shards` is clamped to
  /// [1, max(1, num_edges)].
  ShardedLsdb(std::size_t num_edges, std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Applies one LSA (thread-safe, any number of concurrent callers).
  /// Nonzero generations are gated newest-wins by lsdb::gate_generation,
  /// as in lsdb::Lsdb::apply; returns true when the view changed ownership of
  /// the event (it was applied), false when it was discarded.
  bool apply(const lsdb::LinkEvent& ev);

  /// Monotone count of applied events. Incremented *after* the shard
  /// publish, so a snapshot taken at version() == v contains at least the
  /// first v applied events.
  std::uint64_t version() const {
    return version_.load(std::memory_order_seq_cst);
  }

  std::uint64_t duplicates_discarded() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale_discarded() const {
    return stale_.load(std::memory_order_relaxed);
  }

  EpochManager& epochs() { return epochs_; }
  const EpochManager& epochs() const { return epochs_; }

  /// An epoch-pinned composite read view. Movable, not copyable; the pin
  /// is released on destruction. Cheap to take: one slot CAS plus one
  /// pointer load per shard, no locks.
  class Snapshot {
   public:
    bool edge_failed(graph::EdgeId e) const {
      const ShardSnapshot* s = shards_[e % shards_.size()];
      return s->down[e / shards_.size()] != 0;
    }
    std::uint64_t generation(graph::EdgeId e) const {
      const ShardSnapshot* s = shards_[e % shards_.size()];
      return s->generation[e / shards_.size()];
    }
    /// Version floor: the view contains at least this many applied events.
    std::uint64_t version() const { return version_; }

    /// Number of down links in the view. O(shards).
    std::size_t failed_edge_count() const;
    /// The i-th down link, shard by shard (ascending within a shard).
    /// O(shards). Precondition: i < failed_edge_count().
    graph::EdgeId failed_edge(std::size_t i) const;

    /// Materializes the view as a FailureMask (link failures only — the
    /// service's ingest stream is the LSA flood, which carries no router
    /// events). Walks the shards' failed-link lists, not every link.
    graph::FailureMask to_mask() const;

   private:
    friend class ShardedLsdb;
    Snapshot(EpochManager::Guard guard,
             std::vector<const ShardSnapshot*> shards, std::uint64_t version)
        : guard_(std::move(guard)),
          shards_(std::move(shards)),
          version_(version) {}

    EpochManager::Guard guard_;
    std::vector<const ShardSnapshot*> shards_;
    std::uint64_t version_ = 0;
  };

  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::mutex writer_mu;
    /// Owning pointer to the current snapshot, released via the epoch
    /// manager on replacement. Readers load it while epoch-pinned.
    std::atomic<const ShardSnapshot*> current{nullptr};
    /// Keeps the current snapshot alive for handoff into retire().
    std::shared_ptr<const ShardSnapshot> owner;
  };

  std::size_t num_edges_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable EpochManager epochs_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> stale_{0};
};

}  // namespace rbpc::service
