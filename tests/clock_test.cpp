// Global version clock: per-mode semantics, monotonicity, concurrent
// uniqueness under GV1, and exact publish tallies across threads.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "test_common.h"

namespace rhtm {
namespace {

void gv1_sequential() {
  GlobalVersionClock clock(GvMode::kGv1);
  CHECK_EQ(clock.read(), 0u);
  CHECK_EQ(clock.next(), 1u);
  CHECK_EQ(clock.next(), 2u);
  CHECK_EQ(clock.read(), 2u);
}

void gv1_concurrent_unique() {
  GlobalVersionClock clock(GvMode::kGv1);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 20000;
  std::vector<std::vector<TmWord>> seen(kThreads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      seen[t].reserve(kPerThread);
      for (unsigned i = 0; i < kPerThread; ++i) seen[t].push_back(clock.next());
    });
  }
  for (auto& w : workers) w.join();
  std::vector<TmWord> all;
  for (const auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  CHECK_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  CHECK(std::adjacent_find(all.begin(), all.end()) == all.end());  // all unique
  CHECK_EQ(clock.read(), static_cast<TmWord>(kThreads) * kPerThread);
}

// Each GV1 next() and each stamping hardware commit is one global publish;
// the per-thread tally must sum to exactly that once the workers join.
void gv1_publish_tally_exact() {
  GlobalVersionClock clock(GvMode::kGv1);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 20000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        (void)clock.next();
        clock.note_hw_commit();
      }
    });
  }
  for (auto& w : workers) w.join();
  CHECK_EQ(clock.global_publishes(), std::uint64_t{2} * kThreads * kPerThread);
  CHECK_EQ(clock.local_publishes(), 0u);
}

void gv4_batches() {
  GlobalVersionClock clock(GvMode::kGv4);
  const TmWord a = clock.next();
  CHECK_EQ(a, 1u);
  // Concurrent nexts: every returned value must be > the value of the clock
  // at the call's start (stamp freshness), and the clock advances at most
  // once per racing batch. With real races that's hard to pin down; check
  // the sequential contract and monotonic non-decrease under threads.
  std::vector<std::thread> workers;
  std::atomic<bool> ok{true};
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      TmWord last = 0;
      for (unsigned i = 0; i < 20000; ++i) {
        const TmWord rv = clock.read();
        const TmWord wv = clock.next();
        if (wv <= rv || wv < last) ok = false;  // stamp must beat any prior rv
        last = wv;
      }
    });
  }
  for (auto& w : workers) w.join();
  CHECK(ok.load());
}

void gv6_quiet() {
  GlobalVersionClock clock(GvMode::kGv6);
  CHECK_EQ(clock.next(), 1u);
  CHECK_EQ(clock.next(), 1u);  // next() never writes
  CHECK_EQ(clock.read(), 0u);
  clock.on_abort();  // aborting readers advance the clock
  CHECK_EQ(clock.read(), 1u);
  CHECK_EQ(clock.next(), 2u);
}

void gv1_gv4_on_abort_noop() {
  GlobalVersionClock g1(GvMode::kGv1);
  g1.on_abort();
  CHECK_EQ(g1.read(), 0u);
  GlobalVersionClock g4(GvMode::kGv4);
  g4.on_abort();
  CHECK_EQ(g4.read(), 0u);
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"gv1_sequential", rhtm::gv1_sequential},
      TestCase{"gv1_concurrent_unique", rhtm::gv1_concurrent_unique},
      TestCase{"gv1_publish_tally_exact", rhtm::gv1_publish_tally_exact},
      TestCase{"gv4_batches", rhtm::gv4_batches},
      TestCase{"gv6_quiet", rhtm::gv6_quiet},
      TestCase{"gv1_gv4_on_abort_noop", rhtm::gv1_gv4_on_abort_noop},
  });
}
