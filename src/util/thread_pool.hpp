// Fixed-size worker pool for data-parallel batch work.
//
// The pool is deliberately minimal: submit fire-and-forget tasks, or use
// parallel_for to split an index range across the workers and block until
// every index has been processed. parallel_for rethrows the first task
// exception in the calling thread, so Error-style preconditions propagate
// out of parallel sections exactly like out of serial loops. A task given
// to submit() must not throw: nothing catches it, so an escaping exception
// terminates the process (both submitters, parallel_for and the
// restoration service's workers, catch their own).
//
// Determinism note: the pool makes no ordering promises between tasks.
// Callers that need thread-count-independent results (core/batch.hpp) must
// write task i's output to slot i and never branch on completion order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rbpc {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains already-submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one task. The task must not throw: an escaping exception
  /// terminates the process.
  void submit(std::function<void()> task);

  /// Runs fn(0) .. fn(n - 1) across the pool and blocks until all calls
  /// returned. Indices are claimed dynamically (atomic counter), so the
  /// assignment of index to worker is *not* deterministic — only use with
  /// independent per-index work. If any call throws, the first exception
  /// (in completion order) is rethrown here after all workers stopped; the
  /// remaining unclaimed indices are skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The worker count a default-constructed pool would use.
  static std::size_t default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace rbpc
