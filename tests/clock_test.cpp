// Global version clock: per-mode semantics, monotonicity, concurrent
// uniqueness under GV1, exact publish tallies across threads, and the
// catch-up lift the read-version extension uses.

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

// lift() is the read-version extension's catch-up step (core/tl2.h): a
// reader that meets a GV6 stamp at clock+1 raises the clock to cover it.

void lift_never_lowers_the_clock() {
  GlobalVersionClock clock(GvMode::kGv6);
  clock.lift(9);
  CHECK_EQ(clock.read(), 9u);
  clock.lift(4);
  CHECK_EQ(clock.read(), 9u);
  // Racing lifts to interleaved stamps: every thread sees the clock cover
  // its own stamp and never move backwards; the clock ends at the maximum.
  constexpr unsigned kThreads = 4;
  constexpr TmWord kPerThread = 5000;
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      TmWord last = 0;
      for (TmWord i = 1; i <= kPerThread; ++i) {
        const TmWord stamp = i * kThreads + t;
        clock.lift(stamp);
        const TmWord now = clock.read();
        if (now < stamp || now < last) ok = false;
        last = now;
      }
    });
  }
  for (auto& w : workers) w.join();
  CHECK(ok.load());
  CHECK_EQ(clock.read(), kPerThread * kThreads + kThreads - 1);
  CHECK(clock.global_publishes() <= std::uint64_t{kThreads} * kPerThread + 1);
}

void lift_covered_is_a_noop() {
  GlobalVersionClock clock(GvMode::kGv6);
  clock.on_abort();
  clock.on_abort();
  CHECK_EQ(clock.global_publishes(), 2u);
  for (const TmWord stamp : {0u, 1u, 2u}) {
    clock.lift(stamp);
    CHECK_EQ(clock.read(), 2u);
    CHECK_EQ(clock.global_publishes(), 2u);  // no write, no publish
  }
}

void lift_that_writes_is_one_publish() {
  GlobalVersionClock clock(GvMode::kGv6);
  clock.lift(1);
  CHECK_EQ(clock.global_publishes(), 1u);
  clock.lift(100);  // a jump of 99 is still one write
  CHECK_EQ(clock.read(), 100u);
  CHECK_EQ(clock.global_publishes(), 2u);
  CHECK_EQ(clock.next(), 101u);  // next() still never writes
  CHECK_EQ(clock.global_publishes(), 2u);
}

/// Cached clock: the lift also raises the caller's home replica (read()
/// comes from it), never another socket's, and a replica that lags a
/// global already covering the stamp costs no global publish.
void lift_raises_the_home_replica() {
  const Topology topo = Topology::fake({{0}, {1}});
  GlobalVersionClock clock(GvMode::kGv6, &topo);
  set_thread_socket_override(0);
  clock.lift(5);
  CHECK_EQ(clock.read(), 5u);
  CHECK_EQ(clock.cell().word.load(), 5u);
  CHECK_EQ(clock.global_publishes(), 1u);
  set_thread_socket_override(1);
  CHECK_EQ(clock.read(), 0u);
  clock.lift(3);
  CHECK_EQ(clock.read(), 3u);
  CHECK_EQ(clock.cell().word.load(), 5u);
  CHECK_EQ(clock.global_publishes(), 1u);
  set_thread_socket_override(-1);
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
      TestCase{"lift_never_lowers_the_clock", rhtm::lift_never_lowers_the_clock},
      TestCase{"lift_covered_is_a_noop", rhtm::lift_covered_is_a_noop},
      TestCase{"lift_that_writes_is_one_publish", rhtm::lift_that_writes_is_one_publish},
      TestCase{"lift_raises_the_home_replica", rhtm::lift_raises_the_home_replica},
  });
}
