// Workload-tooling coverage: the Zipfian generator's empirical frequency
// ranking and range, TimedHandle's access counting / barrier-cycle
// attribution, the shared run_worker_pool substrate (tid coverage, pinned
// per-thread seeding, live ThreadCtx wiring), the throughput and phased
// drivers' deadline behaviour and stats attribution after the worker-pool
// refactor, the phase schedule's windowing, and the pin-mode helper.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"
#include "workloads/driver.h"
#include "workloads/phase_schedule.h"
#include "workloads/zipf.h"

namespace rhtm {
namespace {

// ------------------------------------------------------------------- zipf --

void test_zipf_in_range_and_ranked() {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kDraws = 200'000;
  ZipfianGenerator zipf(kN, 0.99);
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> counts(kN, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::size_t r = zipf.next(rng);
    CHECK(r < kN);  // always in range
    ++counts[r];
  }
  // Theoretical ordering: P(rank i) ~ 1/(i+1)^theta is strictly decreasing.
  // Pin the exact order over the head (where the mass is concentrated and
  // sampling noise is negligible at 200K draws) ...
  for (std::size_t i = 0; i + 1 < 8; ++i) CHECK(counts[i] > counts[i + 1]);
  // ... and the coarse ordering over the tail via quartile masses.
  std::uint64_t quartile[4] = {};
  for (std::size_t i = 0; i < kN; ++i) quartile[i / (kN / 4)] += counts[i];
  CHECK(quartile[0] > quartile[1]);
  CHECK(quartile[1] > quartile[2]);
  CHECK(quartile[2] > quartile[3]);
  // Head probability matches the closed form P(0) = 1/zeta_n within noise.
  double zetan = 0;
  for (std::size_t i = 1; i <= kN; ++i) zetan += 1.0 / std::pow(double(i), 0.99);
  const double expected = static_cast<double>(kDraws) / zetan;
  CHECK(counts[0] > expected * 0.9);
  CHECK(counts[0] < expected * 1.1);
}

void test_zipf_theta_skew() {
  // Higher theta = more skew: the hottest rank's share must grow with it.
  constexpr std::size_t kN = 1024;
  constexpr std::size_t kDraws = 100'000;
  std::uint64_t hot[2] = {};
  const double thetas[2] = {0.5, 0.99};
  for (int t = 0; t < 2; ++t) {
    ZipfianGenerator zipf(kN, thetas[t]);
    Xoshiro256 rng(7);
    for (std::size_t i = 0; i < kDraws; ++i) {
      if (zipf.next(rng) == 0) ++hot[t];
    }
  }
  CHECK(hot[1] > 2 * hot[0]);
}

// ----------------------------------------------------------- timed handle --

/// Inner handle standing in for a protocol: counts calls, returns a marker.
struct RecordingInner {
  int loads = 0;
  int stores = 0;
  TmWord load(const TmCell&) {
    ++loads;
    return 42;
  }
  void store(TmCell&, TmWord) { ++stores; }
};

void test_timed_handle_counts_and_attributes() {
  TmCell cell;
  BreakdownCounters stats;
  RecordingInner inner;
  {
    TimedHandle<RecordingInner, true, true> h(inner, stats);
    for (int i = 0; i < 10; ++i) CHECK_EQ(h.load(cell), 42u);
    for (int i = 0; i < 4; ++i) h.store(cell, 1);
  }
  CHECK_EQ(stats.reads, 10u);
  CHECK_EQ(stats.writes, 4u);
  CHECK_EQ(inner.loads, 10);
  CHECK_EQ(inner.stores, 4);
  CHECK(stats.read_cycles > 0);
  CHECK(stats.write_cycles > 0);

  // Untimed flavor: same counts, zero barrier cycles by construction.
  BreakdownCounters untimed;
  RecordingInner inner2;
  TimedHandle<RecordingInner, false, false> h2(inner2, untimed);
  (void)h2.load(cell);
  h2.store(cell, 1);
  CHECK_EQ(untimed.reads, 1u);
  CHECK_EQ(untimed.writes, 1u);
  CHECK_EQ(untimed.read_cycles, 0u);
  CHECK_EQ(untimed.write_cycles, 0u);
}

// ------------------------------------------------------------ worker pool --

/// run_worker_pool is the shared substrate under run_throughput, run_phased
/// and run_open_loop: every tid in [0, threads) runs exactly once with a
/// usable ThreadCtx, the per-thread rng seeding is the pinned
/// driver_thread_seed formula, and the returned wall time covers the run.
void test_run_worker_pool_substrate() {
  TmUniverse<HtmSim> u;
  Tl2<HtmSim> tm(u);
  TVar<TmWord> cell;
  constexpr unsigned kThreads = 4;
  std::atomic<unsigned> tid_mask{0};
  std::uint64_t first_draw[kThreads] = {};
  const double wall =
      run_worker_pool(tm, kThreads, PinMode::kNone, [&](auto& ctx, Xoshiro256& rng,
                                                        unsigned tid) {
        tid_mask.fetch_or(1u << tid, std::memory_order_relaxed);
        first_draw[tid] = rng.next_u64();
        tm.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
      });
  CHECK(wall > 0.0);
  CHECK_EQ(tid_mask.load(), (1u << kThreads) - 1);  // every tid ran once
  CHECK_EQ(cell.unsafe_read(), kThreads);           // every ctx was live
  // Seeding is deterministic and per-thread distinct.
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    Xoshiro256 expect(driver_thread_seed(tid));
    CHECK_EQ(first_draw[tid], expect.next_u64());
    for (unsigned other = 0; other < tid; ++other) {
      CHECK(first_draw[tid] != first_draw[other]);
    }
  }
}

/// The closed-loop drivers must behave identically after the worker-pool
/// refactor: one commit per op, ops attributed to the right thread slots,
/// and the cell total equal to the commit total.
void test_run_throughput_stats_attribution() {
  TmUniverse<HtmSim> u;
  Tl2<HtmSim> tm(u);
  TVar<TmWord> cell;
  const ThroughputResult r =
      run_throughput(tm, 2, 0.02, [&](auto& tmr, auto& ctx, Xoshiro256&, unsigned) {
        tmr.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
      });
  CHECK(r.total_ops > 0);
  CHECK_EQ(cell.unsafe_read(), r.stats.commits);
  // Each op is exactly one committed transaction.
  CHECK_EQ(r.stats.commits, r.total_ops);
  CHECK(r.seconds > 0.0);
}

// ------------------------------------------------- drivers stop on time --

/// A slow op (2 ms sleep per transaction) must not let the driver overshoot
/// its deadline by more than the op granularity — the deadline is checked
/// between ops, so the bound is seconds + O(one op), not seconds exactly.
void test_run_throughput_deadline_under_slow_op() {
  TmUniverse<HtmSim> u;
  Tl2<HtmSim> tm(u);
  TVar<TmWord> cell;
  const auto t0 = std::chrono::steady_clock::now();
  const ThroughputResult r = run_throughput(tm, 2, 0.02, [&](auto& tmr, auto& ctx, Xoshiro256&,
                                                             unsigned) {
    tmr.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CHECK(r.total_ops >= 2);          // both threads ran at least one op
  CHECK(r.total_ops <= 2 * 60);     // ... but nowhere near an unbounded run
  CHECK(wall < 2.0);                // 0.02 s budget + op granularity + CI slack
}

void test_run_phased_deadline_and_phase_accounting() {
  TmUniverse<HtmSim> u;
  Tl2<HtmSim> tm(u);
  TVar<TmWord> cell;
  const PhaseSchedule schedule({
      {"reads", 0.5, 0, 0, 0},
      {"writes", 0.5, 100, 0, 0},
  });
  CHECK_EQ(schedule.size(), 2u);
  const auto t0 = std::chrono::steady_clock::now();
  const PhasedResult r = run_phased(
      tm, 2, 0.1, schedule,
      [&](auto& tmr, auto& ctx, Xoshiro256&, unsigned, std::size_t idx, const Phase& phase) {
        CHECK_EQ(phase.write_percent, idx == 0 ? 0u : 100u);
        if (phase.write_percent != 0) {
          tmr.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
        } else {
          TmWord sink = 0;
          tmr.atomically(ctx, [&](auto& tx) { sink = cell.read(tx); });
          (void)sink;
        }
      });
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CHECK(wall < 5.0);
  CHECK_EQ(r.per_phase.size(), 2u);
  // Each phase got its nominal half of the run and did real work.
  CHECK(r.per_phase[0].seconds > 0.049 && r.per_phase[0].seconds < 0.051);
  CHECK(r.per_phase[0].total_ops > 0);
  CHECK(r.per_phase[1].total_ops > 0);
  // Stats landed in the right phase: all the cell writes are phase-1
  // commits, and phase totals add up.
  CHECK(r.per_phase[1].stats.commits > 0);
  const ThroughputResult total = r.total();
  CHECK_EQ(total.total_ops, r.per_phase[0].total_ops + r.per_phase[1].total_ops);
  CHECK_EQ(cell.unsafe_read(), r.per_phase[1].stats.commits);
}

void test_phase_schedule_windows() {
  const PhaseSchedule s({{"a", 1.0, 0, 0, 0}, {"b", 3.0, 0, 0, 0}});
  CHECK_EQ(s.phase_at(0.0), 0u);
  CHECK_EQ(s.phase_at(0.24), 0u);
  CHECK_EQ(s.phase_at(0.26), 1u);
  CHECK_EQ(s.phase_at(0.999), 1u);
  CHECK_EQ(s.phase_at(1.5), 1u);  // clamped
  CHECK(s.fraction(0) > 0.249 && s.fraction(0) < 0.251);
  const PhaseSchedule empty({});
  CHECK_EQ(empty.size(), 1u);  // degenerate schedule = one all-run phase
  CHECK_EQ(empty.phase_at(0.5), 0u);
  // All-nonpositive weights degrade to an equal split, not zero windows.
  const PhaseSchedule zeros({{"a", 0.0, 0, 0, 0}, {"b", 0.0, 0, 0, 0}});
  CHECK(zeros.fraction(0) > 0.49 && zeros.fraction(0) < 0.51);
  CHECK_EQ(zeros.phase_at(0.25), 0u);
  CHECK_EQ(zeros.phase_at(0.75), 1u);
}

// -------------------------------------------------------------- pin modes --

void test_pin_mode_helpers() {
  PinMode m = PinMode::kNone;
  CHECK(parse_pin_mode("compact", &m) && m == PinMode::kCompact);
  CHECK(parse_pin_mode("scatter", &m) && m == PinMode::kScatter);
  CHECK(parse_pin_mode("none", &m) && m == PinMode::kNone);
  CHECK(!parse_pin_mode("bogus", &m));
  CHECK(std::string(to_string(PinMode::kScatter)) == "scatter");

  // compact fills adjacent CPUs; scatter alternates across the id halves.
  CHECK_EQ(pin_cpu_for(PinMode::kCompact, 0, 8), 0u);
  CHECK_EQ(pin_cpu_for(PinMode::kCompact, 3, 8), 3u);
  CHECK_EQ(pin_cpu_for(PinMode::kCompact, 9, 8), 1u);
  CHECK_EQ(pin_cpu_for(PinMode::kScatter, 0, 8), 0u);
  CHECK_EQ(pin_cpu_for(PinMode::kScatter, 1, 8), 4u);
  CHECK_EQ(pin_cpu_for(PinMode::kScatter, 2, 8), 1u);
  CHECK_EQ(pin_cpu_for(PinMode::kScatter, 3, 8), 5u);
  // Both modes are permutations of [0, ncpu) over ncpu consecutive tids —
  // including odd CPU counts — and stay in range on degenerate hosts.
  for (const unsigned ncpu : {1u, 3u, 5u, 8u}) {
    for (const PinMode mode : {PinMode::kCompact, PinMode::kScatter}) {
      std::vector<bool> used(ncpu, false);
      for (unsigned tid = 0; tid < ncpu; ++tid) {
        const unsigned cpu = pin_cpu_for(mode, tid, ncpu);
        CHECK(cpu < ncpu);
        CHECK(!used[cpu]);
        used[cpu] = true;
      }
    }
  }

  // Pinning the current thread must never crash, whatever the platform.
  pin_current_thread(PinMode::kNone, 0);
  pin_current_thread(PinMode::kCompact, 0);
  pin_current_thread(PinMode::kScatter, 1);
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      {"zipf_in_range_and_ranked", rhtm::test_zipf_in_range_and_ranked},
      {"zipf_theta_skew", rhtm::test_zipf_theta_skew},
      {"timed_handle_counts_and_attributes", rhtm::test_timed_handle_counts_and_attributes},
      {"run_worker_pool_substrate", rhtm::test_run_worker_pool_substrate},
      {"run_throughput_stats_attribution", rhtm::test_run_throughput_stats_attribution},
      {"run_throughput_deadline_under_slow_op",
       rhtm::test_run_throughput_deadline_under_slow_op},
      {"run_phased_deadline_and_phase_accounting",
       rhtm::test_run_phased_deadline_and_phase_accounting},
      {"phase_schedule_windows", rhtm::test_phase_schedule_windows},
      {"pin_mode_helpers", rhtm::test_pin_mode_helpers},
  });
}
