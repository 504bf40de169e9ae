// Minimal discrete-event simulation core.
//
// Deterministic: events at equal times fire in scheduling order (a
// monotonically increasing sequence number breaks ties). The sequence
// number doubles as a cancellation token: flap-recovery events that are
// superseded by a newer transition can be invalidated with cancel()
// instead of firing as stale work.
//
// Thread safety: all members may be called concurrently. An event is
// *claimed* — popped, removed from the live set, and the clock advanced —
// atomically under the queue lock, and its callback runs outside the lock.
// cancel() therefore linearizes against firing: it returns true iff the
// event will never run (not even partially), and false once the event has
// been claimed, even if its callback is still executing on another thread.
// Callbacks may freely call schedule/cancel/now on the same queue.
// Determinism for the single-threaded simulation use is unchanged; with
// multiple threads driving step() the fire order of equal-time events is
// whichever thread claims first.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_set>
#include <vector>

namespace rbpc::lsdb {

using SimTime = double;

/// Handle to a scheduled event, usable with EventQueue::cancel.
using EventToken = std::uint64_t;

class EventQueue {
 public:
  SimTime now() const;

  /// Schedules `fn` to run at now() + delay. Precondition: delay >= 0 and
  /// not NaN (either raises PreconditionError — a NaN delay would silently
  /// corrupt the heap ordering, since NaN compares false against
  /// everything). Returns a token for cancel().
  EventToken schedule(SimTime delay, std::function<void()> fn);
  /// Schedules at an absolute time >= now() (and not NaN).
  EventToken schedule_at(SimTime when, std::function<void()> fn);

  /// Invalidates a pending event: it will be discarded, unfired, when its
  /// time comes (the clock does not advance to a cancelled event's time
  /// unless a live event shares it). Returns true when the token named a
  /// pending event — a guarantee the event never fires; false when it was
  /// already claimed for firing, already cancelled, or never existed.
  bool cancel(EventToken token);

  bool empty() const { return pending() == 0; }
  /// Live (non-cancelled) events still queued.
  std::size_t pending() const;
  std::size_t cancelled_pending() const;

  /// Runs the next live event; returns false when none remain.
  bool step();
  /// Runs events until the queue drains.
  void run_all();

 private:
  struct Item {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  /// Pops cancelled items off the heap top without running them. Caller
  /// must hold mu_.
  void drop_cancelled_head();
  /// Inserts one event. Caller must hold mu_.
  EventToken schedule_locked(SimTime when, std::function<void()> fn);

  /// Guards every member below; never held while a callback runs.
  mutable std::mutex mu_;
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  /// Tokens of queued, not-yet-cancelled events (mirrors the heap).
  std::unordered_set<EventToken> live_;
  /// Tokens cancelled while still queued; erased as their items surface.
  std::unordered_set<EventToken> cancelled_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rbpc::lsdb
