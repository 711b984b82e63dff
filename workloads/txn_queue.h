#pragma once

// Transactional MPMC ring queue — the producer/consumer workload of the
// dynamic-workload subsystem. Enqueue and dequeue are each one transaction
// over three TVars (head, tail, one slot), so every protocol's conflict
// behaviour on a *pointer-chasing-free but inherently serializing* hot spot
// becomes measurable: all enqueuers conflict on `tail`, all dequeuers on
// `head`, and the paper's uninstrumented-read advantage shows up in how
// cheaply a protocol discovers "queue unchanged, retry not needed".
//
// Values are conserved: an item enqueued by a committed transaction is
// dequeued by exactly one committed transaction (no loss, no duplication —
// tests/txn_queue_test.cpp pins this per protocol on the atomic
// substrates). head_ and tail_ are monotonically increasing positions; a
// slot index is position % capacity. Full/empty conditions make the
// operation a committed no-op returning false (the transaction still
// commits — progress accounting stays honest).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"

namespace rhtm {

class TxnQueue {
 public:
  explicit TxnQueue(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity),
                                            slots_(cap_) {}

  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Transactional enqueue; false = queue full (the transaction commits as
  /// a no-op).
  template <class Handle>
  bool enqueue(Handle& h, TmWord v) const {
    const TmWord tail = tail_.read(h);
    const TmWord head = head_.read(h);
    if (tail - head >= cap_) return false;
    slots_[static_cast<std::size_t>(tail % cap_)].write(h, v);
    tail_.write(h, tail + 1);
    return true;
  }

  /// Transactional dequeue; false = queue empty.
  template <class Handle>
  bool dequeue(Handle& h, TmWord* out) const {
    const TmWord head = head_.read(h);
    const TmWord tail = tail_.read(h);
    if (head == tail) return false;
    *out = slots_[static_cast<std::size_t>(head % cap_)].read(h);
    head_.write(h, head + 1);
    return true;
  }

  /// Transactional occupancy (reads both cursors).
  template <class Handle>
  [[nodiscard]] TmWord size(Handle& h) const {
    return tail_.read(h) - head_.read(h);
  }

  [[nodiscard]] TmWord unsafe_size() const {
    return tail_.unsafe_read() - head_.unsafe_read();
  }

  /// Rewinds both cursors and refills `fill` placeholder items (capped at
  /// capacity), so every bench series starts from the same occupancy.
  /// Non-transactional: quiescent use only.
  void unsafe_reset(std::size_t fill) {
    head_.unsafe_write(0);
    tail_.unsafe_write(0);
    UnsafeHandle h;
    if (fill > cap_) fill = cap_;
    for (std::size_t i = 0; i < fill; ++i) (void)enqueue(h, static_cast<TmWord>(i));
  }
  /// Total items ever enqueued / dequeued by committed transactions.
  [[nodiscard]] TmWord unsafe_enqueued() const { return tail_.unsafe_read(); }
  [[nodiscard]] TmWord unsafe_dequeued() const { return head_.unsafe_read(); }

 private:
  std::size_t cap_;
  // Each cursor on its own cache line: enqueuers and dequeuers of a
  // non-empty, non-full queue must not false-share (or false-conflict on
  // the rtm substrate) through adjacent words.
  alignas(kCacheLineBytes) TVar<TmWord> head_{0};
  alignas(kCacheLineBytes) TVar<TmWord> tail_{0};
  alignas(kCacheLineBytes) std::vector<TVar<TmWord>> slots_;
};

}  // namespace rhtm
