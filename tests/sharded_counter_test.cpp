// ShardedCounter: every add lands exactly once, whether the thread holds a
// leased slot of its own, shares the overflow slot with the threads beyond
// kSlots live ones, reuses a slot an exited thread returned, or is a forked
// child adding to a counter in MAP_SHARED memory.

#include <algorithm>
#include <atomic>
#include <latch>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/sharded_counter.h"
#include "test_common.h"

namespace rhtm {
namespace {

/// Starts `threads` threads and returns how many adds they made. The first
/// add takes the thread's lease, one thread at a time, so the threads with
/// a ticket of kSlots or more get no slot of their own and share the
/// overflow slot. Once every thread holds its lease, those overflow
/// threads make `overflow_adds` more adds all at once while the others
/// wait; then the others make `adds` more each, all at once.
std::uint64_t concurrent_adds(ShardedCounter& c, int threads, int adds, int overflow_adds) {
  constexpr int kSlots = static_cast<int>(ShardedCounter::kSlots);
  const int overflow = std::max(threads - kSlots, 0);
  std::mutex order;
  int next_ticket = 0;
  std::atomic<int> leased{0};
  std::latch overflow_done(overflow);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      int ticket = 0;
      {
        const std::lock_guard<std::mutex> g(order);
        c.fetch_add(1);
        ticket = next_ticket++;
      }
      leased.fetch_add(1);
      while (leased.load() < threads) std::this_thread::yield();
      if (ticket >= kSlots) {
        for (int i = 0; i < overflow_adds; ++i) c.fetch_add(1);
        overflow_done.count_down();
        return;
      }
      overflow_done.wait();
      for (int i = 0; i < adds; ++i) c.fetch_add(1);
    });
  }
  for (std::thread& th : pool) th.join();
  return static_cast<std::uint64_t>(threads) +
         static_cast<std::uint64_t>(threads - overflow) * static_cast<std::uint64_t>(adds) +
         static_cast<std::uint64_t>(overflow) * static_cast<std::uint64_t>(overflow_adds);
}

void eight_threads_sum_exactly() {
  ShardedCounter c;
  const std::uint64_t expected = concurrent_adds(c, 8, 100000, 0);
  CHECK_EQ(expected, 8u * 100001u);
  CHECK_EQ(c.load(), expected);
}

/// More live threads than leased slots: the last six to lease share the
/// overflow slot, whose adds must stay atomic. They make most of the adds,
/// so that on a host with few cores they still get to race.
void seventy_live_threads_share_the_overflow_slot() {
  ShardedCounter c;
  constexpr int kThreads = 70;
  static_assert(kThreads > static_cast<int>(ShardedCounter::kSlots));
  const std::uint64_t expected = concurrent_adds(c, kThreads, 10000, 2000000);
  CHECK_EQ(c.load(), expected);
}

/// Each thread exits before the next starts, so they all lease the same
/// slot in turn: a new lessee must count on from the last one's total.
void short_lived_threads_sum_exactly() {
  ShardedCounter c;
  constexpr int kThreads = 200;
  constexpr int kAdds = 1000;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&] {
      for (int i = 0; i < kAdds; ++i) c.fetch_add(1);
    }).join();
  }
  CHECK_EQ(c.load(), std::uint64_t{kThreads} * kAdds);
}

/// The parent and a forked child add to one counter in a MAP_SHARED
/// mapping at the same time. The child inherits the parent's lease, so
/// without the fork rule both would store to one slot and lose adds.
void forked_child_adds_to_shared_mapping() {
#if !defined(_WIN32)
  void* mem = mmap(nullptr, sizeof(ShardedCounter), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  CHECK(mem != MAP_FAILED);
  if (mem == MAP_FAILED) return;
  auto* c = new (mem) ShardedCounter();
  c->fetch_add(1);  // the parent's thread now holds a lease
  constexpr int kAdds = 2000000;
  const pid_t pid = fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    for (int i = 0; i < kAdds; ++i) c->fetch_add(1);
    _exit(0);
  }
  for (int i = 0; i < kAdds; ++i) c->fetch_add(1);
  int status = 0;
  CHECK_EQ(waitpid(pid, &status, 0), pid);
  CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  CHECK_EQ(c->load(), std::uint64_t{1} + 2 * std::uint64_t{kAdds});
  munmap(mem, sizeof(ShardedCounter));
#endif
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"eight_threads_sum_exactly", rhtm::eight_threads_sum_exactly},
      TestCase{"seventy_live_threads_share_the_overflow_slot",
               rhtm::seventy_live_threads_share_the_overflow_slot},
      TestCase{"short_lived_threads_sum_exactly", rhtm::short_lived_threads_sum_exactly},
      TestCase{"forked_child_adds_to_shared_mapping", rhtm::forked_child_adds_to_shared_mapping},
  });
}
