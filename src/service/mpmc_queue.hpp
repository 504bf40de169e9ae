// Bounded lock-free multi-producer/multi-consumer queue (Dmitry Vyukov's
// bounded MPMC design): a power-of-two ring of cells, each carrying a
// sequence number that encodes whether the cell is ready to be written
// (seq == pos) or read (seq == pos + 1). Producers and consumers claim
// positions with a single CAS each; a full queue rejects the push instead
// of waiting.
//
// "Full" means full by count: push fails only when capacity() items have
// been claimed by producers and not yet by consumers. A producer that
// reaches a cell whose previous item a consumer has claimed but is still
// moving out waits for that move (a few instructions) rather than
// reporting a full ring. The restoration service relies on this: it sizes
// the ring to hold every demand once and asserts that no push fails
// (service.cpp, "why the queue never fills").
//
// close() is a soft shutdown: subsequent pushes fail, but items already in
// the ring stay poppable so consumers can drain in-flight work. pop() on an
// empty closed queue returns false immediately — the caller distinguishes
// "empty for now" from "done" via closed().
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rbpc::service {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit MpmcQueue(std::size_t capacity)
      : buffer_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(buffer_.size() - 1) {
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const { return buffer_.size(); }

  /// Enqueues `v`. Returns false (leaving `v` unconsumed) when the queue
  /// is full or closed.
  ///
  /// enqueue_pos_ is read with acquire and advanced with acq_rel, so a
  /// producer sees every pop claimed before a push it follows; on x86 this
  /// costs nothing over relaxed.
  bool push(T v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = enqueue_pos_.load(std::memory_order_acquire);
    for (;;) {
      Cell& cell = buffer_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                  static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          cell.value = std::move(v);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS reloaded pos; retry with the new position.
      } else if (diff < 0) {
        // The cell still holds the item from a lap ago. Full only when no
        // consumer has claimed that item; otherwise its consumer is moving
        // it out right now.
        const std::size_t deq = dequeue_pos_.load(std::memory_order_acquire);
        if (static_cast<std::ptrdiff_t>(pos - deq) >=
            static_cast<std::ptrdiff_t>(buffer_.size())) {
          return false;
        }
        std::this_thread::yield();
        pos = enqueue_pos_.load(std::memory_order_acquire);
      } else {
        pos = enqueue_pos_.load(std::memory_order_acquire);
      }
    }
  }

  /// Dequeues into `out`. Returns false when the queue is empty (whether
  /// or not it is closed).
  bool pop(T& out) {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = buffer_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                  static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // queue empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Rejects future pushes. Items already enqueued remain poppable.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Instantaneous size estimate (exact only when producers and consumers
  /// are quiescent). Never negative.
  std::size_t approx_size() const {
    const std::size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq > deq ? enq - deq : 0;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  std::vector<Cell> buffer_;
  const std::size_t mask_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace rbpc::service
