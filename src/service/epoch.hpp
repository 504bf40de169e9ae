// Epoch-based reclamation for the always-on restoration service.
//
// The service's LSDB publishes its down-link list as an immutable object: a
// writer swaps in a new list pointer and must eventually free the old one,
// but only once no reader can still be dereferencing it. Reference counting on the
// read path would put an atomic RMW on every snapshot access; epochs move
// that cost to the writer instead. A reader *pins* the current epoch for
// the duration of its read (two relaxed-cost stores, no RMW on shared
// state beyond claiming a slot); a writer *retires* a replaced snapshot
// under the epoch at replacement time and frees it only when every pinned
// epoch has advanced past it.
//
// Correctness argument (all epoch/slot/pointer operations are seq_cst):
// a snapshot retired at epoch e was unpublished before the global epoch
// advanced to e + 1. A reader pinned at epoch p >= e + 1 read the global
// epoch *after* that advance, so its subsequent pointer load observes the
// replacement (seq_cst total order), never the retired snapshot. Readers
// pinned at p <= e block reclamation of e. A reader whose pin was not yet
// visible when the writer scanned the slots cannot have loaded the old
// pointer either — the scan read the slot before the pin wrote it, so the
// pin (and the pointer load after it, in program order) comes later in the
// seq_cst order than the publication it would have had to miss.
//
// Reclamation is cooperative: try_reclaim() runs opportunistically on the
// retire path; there is no background thread to shut down.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rbpc::service {

class EpochManager {
 public:
  /// Concurrent pins supported; pin() throws when exhausted. One slot per
  /// in-flight Guard, not per thread, so nested snapshots cost one each.
  static constexpr std::size_t kMaxReaders = 256;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII epoch pin. Movable; the moved-from guard is inert. Destruction
  /// (or release()) unpins exactly once.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept { *this = std::move(other); }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        mgr_ = other.mgr_;
        slot_ = other.slot_;
        epoch_ = other.epoch_;
        other.mgr_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

    /// Unpins; further calls are no-ops (the "exactly once" contract).
    void release();

    bool active() const { return mgr_ != nullptr; }
    std::uint64_t epoch() const { return epoch_; }

   private:
    friend class EpochManager;
    Guard(EpochManager* mgr, std::size_t slot, std::uint64_t epoch)
        : mgr_(mgr), slot_(slot), epoch_(epoch) {}

    EpochManager* mgr_ = nullptr;
    std::size_t slot_ = 0;
    std::uint64_t epoch_ = 0;
  };

  /// Pins the current epoch. Throws PreconditionError when more than
  /// kMaxReaders guards are simultaneously live.
  Guard pin();

  /// Hands `obj` to the manager for deferred destruction: it is destroyed
  /// (last shared_ptr reference dropped) by a later try_reclaim() once no
  /// reader pins an epoch <= the current one. Advances the global epoch and
  /// reclaims opportunistically.
  void retire(std::shared_ptr<const void> obj);

  /// Destroys every retired object no pinned epoch can still reach.
  /// Returns the number reclaimed. Called from retire(); callers only need
  /// it directly in tests or teardown paths.
  std::size_t try_reclaim();

  // --- introspection (tests, svc.* gauges) ----------------------------------

  /// Smallest pinned epoch; uint64 max when no reader is pinned.
  std::uint64_t min_pinned() const;
  /// Retired objects still awaiting reclamation.
  std::size_t limbo_size() const;
  /// Lifetime count of objects reclaimed.
  std::uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    /// 0 = free; otherwise the pinned epoch (epochs start at 1).
    std::atomic<std::uint64_t> epoch{0};
  };

  struct Retired {
    std::shared_ptr<const void> obj;
    std::uint64_t epoch;
  };

  void unpin(std::size_t slot);

  std::atomic<std::uint64_t> global_epoch_{1};
  Slot slots_[kMaxReaders];
  std::atomic<std::uint64_t> reclaimed_{0};

  mutable std::mutex limbo_mu_;
  std::vector<Retired> limbo_;
};

}  // namespace rbpc::service
