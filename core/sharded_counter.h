#pragma once

// Statistics tally for events that many threads count on a commit path.
// A single std::atomic would make every increment a contended RMW on one
// shared cache line; here each thread bumps only its own 64-byte slot and
// load() sums the slots. The sum is exact once the writers have quiesced
// (every reader reads after joining its workers). Threads take a slot index
// once, in arrival order; past kSlots threads, slots are shared and still
// exact, just no longer contention-free. The slots are plain lock-free
// atomics, so a counter placed in MAP_SHARED memory also sums a forked
// child's increments.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rhtm {

class ShardedCounter {
 public:
  static constexpr std::size_t kSlots = 64;

  void fetch_add(std::uint64_t n) {
    slots_[slot_index()].count.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t load() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.count.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
  };

  /// The calling thread's slot, shared by every ShardedCounter.
  static std::size_t slot_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return index;
  }

  Slot slots_[kSlots];
};

}  // namespace rhtm
