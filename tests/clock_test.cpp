// Global version clock: per-mode semantics, monotonicity, concurrent
// uniqueness under GV1, exact publish tallies across threads, the
// catch-up lift the read-version extension uses, and a universe's GV1
// clock/stripe decisions pinned against the historical formulas.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/rhtm.h"
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

void plain_clock_unchanged_by_counters() {
  // The publish tally leaves the historical sequences bit-for-bit.
  GlobalVersionClock g1(GvMode::kGv1);
  CHECK(g1.hw_writes_clock());
  CHECK_EQ(g1.next(), 1u);
  CHECK_EQ(g1.next(), 2u);
  CHECK_EQ(g1.read(), 2u);
  CHECK_EQ(g1.global_publishes(), 2u);
  GlobalVersionClock g6(GvMode::kGv6);
  CHECK(!g6.hw_writes_clock());
  CHECK_EQ(g6.next(), 1u);
  CHECK_EQ(g6.read(), 0u);
  g6.on_abort();
  CHECK_EQ(g6.read(), 1u);
}

/// Replay pin: a universe built with the GV1 clock makes exactly the
/// historical clock/lock decisions — GV1 advances once per software
/// write-commit, and the stripe hash is the unchanged golden-ratio formula
/// over the unchanged index space.
void off_mode_bit_identical_decisions() {
  UniverseConfig cfg;
  cfg.gv_mode = GvMode::kGv1;
  TmUniverse<HtmSim> u(cfg);
  int probe = 0;
  for (int off = 0; off < 32; ++off) {
    const void* addr = reinterpret_cast<const char*>(&probe) + 512 * off;
    const auto granule = reinterpret_cast<std::uintptr_t>(addr) >>
                         u.stripes().config().granularity_log2;
    const std::size_t expect =
        (static_cast<std::uint64_t>(granule) * 0x9e3779b97f4a7c15ull >> 32) &
        (u.stripes().count() - 1);
    CHECK_EQ(u.stripes().index_of(addr), expect);
  }
  Tl2<HtmSim> tl2(u);
  Tl2<HtmSim>::ThreadCtx ctx(tl2);
  std::vector<TmCell> cells(8);
  for (int i = 0; i < 100; ++i) {
    tl2.atomically(ctx, [&](auto& tx) {
      const TmWord v = tx.load(cells[i % 8]);
      tx.store(cells[i % 8], v + 1);
    });
  }
  // GV1, single thread, no aborts: one clock increment per write commit.
  CHECK_EQ(ctx.stats.commits, 100u);
  CHECK_EQ(ctx.stats.aborts, 0u);
  CHECK_EQ(u.clock().read(), 100u);
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
      TestCase{"plain_clock_unchanged_by_counters", rhtm::plain_clock_unchanged_by_counters},
      TestCase{"off_mode_bit_identical_decisions", rhtm::off_mode_bit_identical_decisions},
  });
}
