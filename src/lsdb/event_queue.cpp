#include "lsdb/event_queue.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace rbpc::lsdb {

SimTime EventQueue::now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

std::size_t EventQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

std::size_t EventQueue::cancelled_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_.size();
}

EventToken EventQueue::schedule(SimTime delay, std::function<void()> fn) {
  require(!std::isnan(delay), "EventQueue::schedule: NaN delay");
  require(delay >= 0.0, "EventQueue::schedule: negative delay");
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_locked(now_ + delay, std::move(fn));
}

EventToken EventQueue::schedule_at(SimTime when, std::function<void()> fn) {
  require(!std::isnan(when), "EventQueue::schedule_at: NaN time");
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_locked(when, std::move(fn));
}

EventToken EventQueue::schedule_locked(SimTime when, std::function<void()> fn) {
  require(when >= now_, "EventQueue::schedule_at: time in the past");
  const EventToken token = next_seq_++;
  heap_.push(Item{when, token, std::move(fn)});
  live_.insert(token);
  return token;
}

bool EventQueue::cancel(EventToken token) {
  // Only tokens still queued can move to the cancelled set. Claiming an
  // event for firing erases it from live_ under the same lock, so a true
  // return here is a guarantee the callback never runs — and a token whose
  // event was already claimed (even if the callback is still executing on
  // another thread) is a no-op returning false.
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.erase(token) == 0) return false;
  cancelled_.insert(token);
  return true;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && cancelled_.contains(heap_.top().seq)) {
    cancelled_.erase(heap_.top().seq);
    heap_.pop();
  }
}

bool EventQueue::step() {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drop_cancelled_head();
    if (heap_.empty()) return false;
    // Claim atomically: pop, leave the live set, advance the clock. From
    // here on cancel() of this token returns false.
    Item item = heap_.top();
    heap_.pop();
    live_.erase(item.seq);
    now_ = item.when;
    fn = std::move(item.fn);
  }
  // Outside the lock: the callback may schedule or cancel freely.
  fn();
  return true;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace rbpc::lsdb
