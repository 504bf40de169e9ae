#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace rbpc {

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  require(static_cast<bool>(task), "ThreadPool::submit: empty task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    require(!stop_, "ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  require(static_cast<bool>(fn), "ThreadPool::parallel_for: empty function");
  if (n == 0) return;

  // Shared state outlives the individual tasks via shared_ptr so that a
  // throwing caller can unwind even if stragglers are still finishing.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t running = 0;
  };
  auto state = std::make_shared<State>();

  const std::size_t tasks = std::min(workers_.size(), n);
  state->running = tasks;
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([state, n, &fn] {
      try {
        for (;;) {
          const std::size_t i =
              state->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n || state->failed.load(std::memory_order_relaxed)) break;
          fn(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->failed.exchange(true)) state->error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->running == 0) state->done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->running == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace rbpc
