// Chase-Lev work-stealing deque (Chase & Lev, SPAA 2005), with the C11
// memory orderings of Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
//
// The owner pushes and pops 64-bit items at the bottom (LIFO — keeps its own
// recently-produced work hot); thieves steal single items from the top
// (FIFO — they take the oldest, largest-granularity work). The only
// cross-thread contention is the top CAS, and only when the deque is nearly
// empty. A steal may fail spuriously when it loses the CAS race — callers
// must treat a failed steal as "retry elsewhere", not "empty"; empty() gives
// the quiescent-exact emptiness test termination detection needs (once no
// one pushes, empty deques stay empty).
//
// Fixed capacity, set by reset(): the explorer sizes each deque for
// the BFS level it schedules and seeds it before forking, so the owner never
// outruns the buffer; push() REQUIREs the bound rather than resizing.
// Elements are relaxed atomics — a stolen slot may be read concurrently with
// a later push writing the same (wrapped) slot, which the top/bottom
// protocol proves harmless but a plain access would make a formal data race.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/check.hpp"

namespace anoncoord {

class ws_deque {
 public:
  /// Single-threaded: empty the deque and ensure room for `capacity` items.
  void reset(std::size_t capacity) {
    std::size_t cap = 64;
    while (cap < capacity) cap *= 2;
    if (cap > cap_) {
      buf_ = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
      cap_ = cap;
    }
    mask_ = cap_ - 1;
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  /// Owner only.
  void push(std::uint64_t v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    ANONCOORD_REQUIRE(b - t < static_cast<std::int64_t>(cap_),
                      "ws_deque capacity exceeded");
    buf_[static_cast<std::size_t>(b) & mask_].store(
        v, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only; LIFO end. False iff the deque is empty.
  bool pop(std::uint64_t& v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      v = buf_[static_cast<std::size_t>(b) & mask_].load(
          std::memory_order_relaxed);
      if (t == b) {
        // Last item: race the thieves for it.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }

  /// Any thread; FIFO end. False when empty OR when the CAS race was lost —
  /// retry or consult empty() before concluding anything.
  bool steal(std::uint64_t& v) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    v = buf_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    return top_.compare_exchange_strong(
        t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
  }

  /// Racy snapshot; exact once no concurrent push can happen (and then
  /// monotone: an empty deque stays empty).
  bool empty() const {
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buf_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

}  // namespace anoncoord
