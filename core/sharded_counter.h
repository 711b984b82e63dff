#pragma once

// Statistics tally for events that many threads count on a commit path.
// A single std::atomic would make every increment a locked RMW, contended
// on one shared cache line; here each thread bumps only its own 64-byte
// slot and load() sums the slots.
//
// A live thread leases a slot on its first add: one bit in a process-wide
// 64-bit mask, shared by every ShardedCounter, and returned by a
// thread_local destructor when the thread exits. Only the lessee writes a
// leased slot, so an add is a relaxed load and a relaxed store — no locked
// instruction, which would wait for the store buffer to drain behind the
// commit's own stores. The bit's acquire/release hand-off orders one
// lessee's last store before the next lessee's first load, so a reused
// slot keeps counting from where it stood. Threads beyond kSlots live ones
// share one extra overflow slot, which keeps fetch_add.
//
// The sum is exact once the writers have quiesced (every reader reads after
// joining its workers). The slots are plain lock-free atomics, so a counter
// placed in MAP_SHARED memory also sums a forked child's adds: the child
// inherits its parent's leases, so on fork it marks every slot taken and
// sends its own adds to the overflow slot, and a slot never has two
// writers across the processes either.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#if !defined(_WIN32)
#include <pthread.h>
#endif

#include "core/cell.h"

namespace rhtm {

class ShardedCounter {
 public:
  /// Leased slots: one per live thread, for up to this many live threads.
  static constexpr std::size_t kSlots = 64;

  void fetch_add(std::uint64_t n) {
    const std::size_t i = lease().index;
    std::atomic<std::uint64_t>& c = slots_[i].count;
    if (i == kOverflow) {
      c.fetch_add(n, std::memory_order_relaxed);
    } else {
      c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t load() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.count.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kOverflow = kSlots;

  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> count{0};
  };

  /// The calling thread's slot index, valid in every ShardedCounter.
  struct Lease {
    std::size_t index = take();
    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (index != kOverflow) {
        leased_.fetch_and(~(std::uint64_t{1} << index), std::memory_order_release);
      }
      index = kOverflow;  // adds from later thread_local destructors share overflow
    }
  };

  static Lease& lease() {
    thread_local Lease l;
    return l;
  }

  /// The lowest free slot, or kOverflow when all kSlots are leased.
  static std::size_t take() {
    std::uint64_t m = leased_.load(std::memory_order_relaxed);
    while (m != ~std::uint64_t{0}) {
      const int bit = std::countr_one(m);
      if (leased_.compare_exchange_weak(m, m | (std::uint64_t{1} << bit),
                                        std::memory_order_acquire, std::memory_order_relaxed)) {
        return static_cast<std::size_t>(bit);
      }
    }
    return kOverflow;
  }

#if !defined(_WIN32)
  /// In a forked child every slot may still be a parent thread's: take
  /// them all, and move the forking thread's lease to the overflow slot.
  static void on_fork_child() {
    leased_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    lease().index = kOverflow;
  }
  static bool register_fork_rule() { return pthread_atfork(nullptr, nullptr, &on_fork_child) == 0; }
  static inline const bool fork_rule_registered_ = register_fork_rule();
#endif

  static_assert(kSlots == 64, "the lease mask is one 64-bit word");
  static inline std::atomic<std::uint64_t> leased_{0};

  Slot slots_[kSlots + 1];  ///< kSlots leased slots, then the overflow slot
};

}  // namespace rhtm
