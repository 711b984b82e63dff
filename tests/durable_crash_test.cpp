// Crash-recovery validation of every durable commit path (core/pmem.h,
// tests/crash_harness.h). Two suites:
//
//  * kill-point sweep — for EVERY named kill point in EVERY durable path
//    (pmem::kPaths × pmem::kPhases), fork a child that runs a deterministic
//    transfer plan through exactly that path, crash it at the N-th commit's
//    kill point, and assert from the parent: the recovered log holds
//    exactly the committed prefix (N-1 commits before the marker phases,
//    N from after_mark on), the crashed transaction's unmarked record is
//    discarded only at after_log, replaying into the parent's pristine
//    cells reproduces the sequential oracle balances, and sum == minted.
//    A long-log leg repeats the after_log and after_mark points of every
//    path with the crash landing after the lane spans several chunks, so
//    no torn record or marker ever reaches recovery from a chunk faulted
//    in at its claim.
//
//  * three-lane long log — three threads, each running the deterministic
//    plan on its own four accounts, all cross at least 3 lane chunks
//    before a barrier, and the kill fires after it. Recovery walks the
//    interleaved lane chunks: each thread's recovered commits must be a
//    prefix of its own plan in seq order, each lane's records span at
//    least four chunks, and replay reproduces every thread's oracle.
//
//  * randomized concurrent oracle — 4 threads of random transfers, a crash
//    at a random kill point / hit count; the recovered log must be a legal
//    serialization: every recovered transaction is a well-formed transfer
//    (src decremented by x > 0, dst incremented by the same x) applied to
//    the prefix state, the final recovered balances equal the replayed
//    oracle, and conservation holds. Runs per protocol family so every
//    durable path sees concurrency.
//
// Substrates: sim always; rtm when hardware-viable. emul is excluded — its
// no-rollback emulation would abandon the locked stripe stamps a durable
// hardware commit takes (crash_harness.h; same exclusion capacity_paths
// documents).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/rhtm.h"
#include "crash_harness.h"
#include "test_common.h"
#include "workloads/account_store.h"

namespace rhtm {
namespace {

using crash::ChildOutcome;
using crash::KillPoint;

// Child-side assertion: a failed expectation exits with a distinct code the
// parent reports as ChildOutcome::kFailed (the child's CHECK output would
// not fail the parent process).
void child_require(bool ok, int code) {
  if (!ok) _exit(code);
}

// ----------------------------------------------------- deterministic plan --
constexpr std::size_t kAccounts = 4;
constexpr TmWord kInitial = 100;
constexpr int kTxnsPerChild = 8;
constexpr int kKillHit = 3;  // crash inside the 3rd commit's persist sequence

// The long-log leg: a 2-write transfer appends 8 log words, so the crash
// lands after the log spans more than three lane chunks.
constexpr int kLongKillHit =
    static_cast<int>(3 * PersistentDomain::kPopulateChunkWords / 8) + 100;
constexpr int kLongTxnsPerChild = kLongKillHit + 16;

struct Plan {
  std::uint64_t from, to;
  TmWord amount;
};

// Every planned transfer succeeds: amounts are tiny vs kInitial, and
// from != to always (adjacent accounts mod 4).
Plan plan_txn(int i) {
  return {static_cast<std::uint64_t>(i % kAccounts),
          static_cast<std::uint64_t>((i + 1) % kAccounts),
          static_cast<TmWord>(i % 3 + 1)};
}

template <class Tm>
void run_planned_transfers(Tm& tm, const AccountStore& store, int n) {
  typename Tm::ThreadCtx ctx(tm);
  for (int i = 0; i < n; ++i) {
    const Plan p = plan_txn(i);
    bool ok = false;
    tm.atomically(ctx, [&](auto& h) { ok = store.transfer(h, p.from, p.to, p.amount); });
    child_require(ok, 3);
  }
}

/// Constructs the protocol that owns the named durable commit path and
/// hands it to `fn`. The protocol configs force the path: every commit in
/// the child takes it, so kill-hit counting is exact.
template <class H, class Fn>
void with_path_tm(TmUniverse<H>& u, const char* path, Fn&& fn) {
  if (std::strcmp(path, pmem::kPathTl2) == 0) {
    Tl2<H> tm(u);
    fn(tm);
  } else if (std::strcmp(path, pmem::kPathRh1Fast) == 0) {
    typename HybridTm<H>::Config cfg;
    cfg.slow_retry_percent = 0;  // hardware only: every commit is a fast commit
    HybridTm<H> tm(u, cfg);
    fn(tm);
  } else if (std::strcmp(path, pmem::kPathRh1) == 0) {
    typename HybridTm<H>::Config cfg;
    cfg.force_slow_path = true;  // software body + reduced hardware commit
    HybridTm<H> tm(u, cfg);
    fn(tm);
  } else if (std::strcmp(path, pmem::kPathRh2) == 0) {
    typename HybridTm<H>::Config cfg;
    cfg.force_rh2 = true;  // visible reads + write-set hardware commit
    HybridTm<H> tm(u, cfg);
    fn(tm);
  } else if (std::strcmp(path, pmem::kPathNorecHw) == 0) {
    HybridNorec<H> tm(u);  // uncontended: every commit is a hardware commit
    fn(tm);
  } else if (std::strcmp(path, pmem::kPathNorecSw) == 0) {
    typename HybridNorec<H>::Config cfg;
    cfg.max_hw_attempts = 0;  // straight to the value-log software path
    HybridNorec<H> tm(u, cfg);
    fn(tm);
  } else {
    _exit(4);  // unknown path name: the sweep and pmem::kPaths diverged
  }
}

/// Runs `n` transfers through the named durable commit path.
template <class H>
void run_path_txns(TmUniverse<H>& u, const char* path, const AccountStore& store, int n) {
  with_path_tm(u, path, [&](auto& tm) { run_planned_transfers(tm, store, n); });
}

/// `strict` = deterministic substrate (sim): every commit provably takes the
/// forced path, so the kill MUST fire at the kill_hit-th commit and the
/// committed/discarded counts are exact. On real RTM, spurious hardware
/// aborts (classified capacity) can spill commits onto a sibling durable
/// path, so the armed point's hit count no longer indexes the plan — the
/// sweep still crashes the child wherever the point fires and validates the
/// substrate-independent contract: the log is a committed PREFIX of the
/// single-threaded plan, at most one in-flight record is discarded, and
/// recovery reproduces exactly that prefix.
template <class H>
void kill_point_sweep(bool strict, const std::vector<KillPoint>& points, int kill_hit,
                      int txns_per_child) {
  for (const KillPoint& kp : points) {
    UniverseConfig ucfg;
    ucfg.durable = true;
    TmUniverse<H> u(ucfg);
    AccountStore store(kAccounts, kInitial, /*shards=*/2);
    const std::string name = kp.name();

    const ChildOutcome outcome = crash::run_crash_child([&] {
      pmem::arm_kill(name.c_str(), kill_hit);
      run_path_txns(u, kp.path, store, txns_per_child);
    });
    CHECK(outcome != ChildOutcome::kFailed);
    if (strict) {
      // Every named kill point must actually be reached by its path.
      CHECK(outcome == ChildOutcome::kKilled);
    }
    if (outcome == ChildOutcome::kFailed) {
      std::printf("    kill point %s: child %s\n", name.c_str(), crash::to_string(outcome));
      continue;
    }

    PersistentDomain& pd = u.pmem();
    std::size_t discarded = 0;
    const auto txns = pd.recover_log(&discarded);
    CHECK(!pd.log_overflowed());
    CHECK(txns.size() <= static_cast<std::size_t>(txns_per_child));
    CHECK(discarded <= 1);
    if (strict && outcome == ChildOutcome::kKilled) {
      // The committed prefix: the crashed (kill_hit-th) commit is durable
      // iff its marker phase was reached.
      const std::size_t expect_committed =
          static_cast<std::size_t>(kill_hit) - (kp.durable_phase() ? 0 : 1);
      const std::size_t expect_discarded = kp.leaves_unmarked_record() ? 1 : 0;
      CHECK_EQ(txns.size(), expect_committed);
      CHECK_EQ(discarded, expect_discarded);
    }

    // Sequential oracle: replay the committed prefix of the plan (the child
    // is single-threaded, so the log must be the plan's prefix in order).
    TmWord oracle[kAccounts];
    for (auto& b : oracle) b = kInitial;
    for (std::size_t k = 0; k < txns.size(); ++k) {
      const Plan p = plan_txn(static_cast<int>(k));
      oracle[p.from] -= p.amount;
      oracle[p.to] += p.amount;
    }
    // Atomicity: each recovered transaction is the complete transfer (both
    // writes, src first), nothing partial, in marker order == plan order.
    TmWord replay[kAccounts];
    for (auto& b : replay) b = kInitial;
    for (std::size_t k = 0; k < txns.size(); ++k) {
      CHECK_EQ(txns[k].entries.size(), std::size_t{2});
      if (txns[k].entries.size() != 2) break;
      const Plan p = plan_txn(static_cast<int>(k));
      CHECK_EQ(txns[k].entries[0].addr,
               reinterpret_cast<std::uintptr_t>(store.account_cell(p.from)));
      CHECK_EQ(txns[k].entries[1].addr,
               reinterpret_cast<std::uintptr_t>(store.account_cell(p.to)));
      replay[p.from] = txns[k].entries[0].value;
      replay[p.to] = txns[k].entries[1].value;
    }
    // Durability: recovery into the parent's pristine cells reproduces the
    // oracle, and value is conserved.
    crash::apply_recovered_cells(pd);
    TmWord sum = 0;
    for (std::size_t a = 0; a < kAccounts; ++a) {
      CHECK_EQ(replay[a], oracle[a]);
      CHECK_EQ(store.unsafe_balance(a), oracle[a]);
      TmWord img = 0;
      if (pd.image_lookup(store.account_cell(a), &img)) CHECK_EQ(img, oracle[a]);
      sum += store.unsafe_balance(a);
    }
    CHECK_EQ(sum, store.total_minted());
  }
}

// ------------------------------------------------ randomized + concurrent --
constexpr std::size_t kConcAccounts = 16;
constexpr TmWord kConcInitial = 1000;
constexpr int kConcThreads = 4;
constexpr int kConcTxnsPerThread = 400;

/// Child side: `threads` workers hammer random transfers through the
/// protocol that owns `path` (forced configs, as in the sweep) until the
/// armed kill point fires or the plan runs out. The workers share one
/// protocol instance, as every concurrent user must: HybridNorec's
/// sequence lock, RH1's RH2 counter and the lock-elision words live in it.
template <class H>
void run_concurrent_child(TmUniverse<H>& u, const char* path, const AccountStore& store,
                          std::uint64_t seed) {
  with_path_tm(u, path, [&](auto& tm) {
    auto worker = [&](int tid) {
      Xoshiro256 rng(seed * 1315423911u + static_cast<std::uint64_t>(tid) + 1);
      typename std::decay_t<decltype(tm)>::ThreadCtx ctx(tm);
      for (int i = 0; i < kConcTxnsPerThread; ++i) {
        const auto from = rng.next_u64() % kConcAccounts;
        const auto to = rng.next_u64() % kConcAccounts;
        const TmWord amount = rng.next_u64() % 5 + 1;
        tm.atomically(ctx, [&](auto& h) { (void)store.transfer(h, from, to, amount); });
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(kConcThreads);
    for (int t = 0; t < kConcThreads; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();
  });
}

/// Parent side: the recovered log must be a legal serialization of
/// transfers — prefix-replay it and require every transaction to be
/// well-formed against the running state.
template <class H>
void concurrent_recovery_oracle() {
  Xoshiro256 pick(20260807);
  const auto points = crash::all_kill_points();
  for (int iter = 0; iter < 8; ++iter) {
    const KillPoint kp = points[pick.next_u64() % points.size()];
    const int nth = static_cast<int>(pick.next_u64() % 40) + 1;
    const std::uint64_t child_seed = pick.next_u64();

    UniverseConfig ucfg;
    ucfg.durable = true;
    TmUniverse<H> u(ucfg);
    AccountStore store(kConcAccounts, kConcInitial, /*shards=*/4);
    const std::string name = kp.name();

    const ChildOutcome outcome = crash::run_crash_child([&] {
      pmem::arm_kill(name.c_str(), nth);
      run_concurrent_child(u, kp.path, store, child_seed);
    });
    // kKilled when the armed point fired, kCompleted when the child drained
    // its whole plan first (e.g. rh2 escalating around the armed commit) —
    // both leave a log that must validate. kFailed never.
    CHECK(outcome != ChildOutcome::kFailed);
    if (outcome == ChildOutcome::kFailed) continue;

    PersistentDomain& pd = u.pmem();
    std::size_t discarded = 0;
    const auto txns = pd.recover_log(&discarded);
    CHECK(!pd.log_overflowed());
    // At most one in-flight (logged-but-unmarked) transaction per thread.
    CHECK(discarded <= static_cast<std::size_t>(kConcThreads));

    std::unordered_map<std::uint64_t, std::size_t> account_of;
    for (std::size_t a = 0; a < kConcAccounts; ++a) {
      account_of[reinterpret_cast<std::uintptr_t>(store.account_cell(a))] = a;
    }
    std::vector<TmWord> bal(kConcAccounts, kConcInitial);
    bool shape_ok = true;
    for (const auto& t : txns) {
      // Atomicity: a committed transfer is exactly [src, dst], moving the
      // same positive amount out of one and into the other.
      if (t.entries.size() != 2) {
        shape_ok = false;
        break;
      }
      const auto s = account_of.find(t.entries[0].addr);
      const auto d = account_of.find(t.entries[1].addr);
      if (s == account_of.end() || d == account_of.end()) {
        shape_ok = false;
        break;
      }
      const TmWord new_src = t.entries[0].value;
      const TmWord new_dst = t.entries[1].value;
      if (new_src >= bal[s->second]) {
        shape_ok = false;  // amount must be > 0 and funds sufficient
        break;
      }
      const TmWord moved = bal[s->second] - new_src;
      if (new_dst != bal[d->second] + moved) {
        shape_ok = false;  // conservation broken mid-log
        break;
      }
      bal[s->second] = new_src;
      bal[d->second] = new_dst;
    }
    CHECK(shape_ok);
    if (!shape_ok) continue;

    // Durability: recovered state == prefix-replayed oracle; conservation.
    crash::apply_recovered_cells(pd);
    TmWord sum = 0;
    for (std::size_t a = 0; a < kConcAccounts; ++a) {
      CHECK_EQ(store.unsafe_balance(a), bal[a]);
      sum += store.unsafe_balance(a);
    }
    CHECK_EQ(sum, store.total_minted());
  }
}

/// Every path's after_log and after_mark points: the phases whose crash
/// leaves the newest record or marker at the very end of the log.
std::vector<KillPoint> log_tail_kill_points() {
  std::vector<KillPoint> points;
  for (const KillPoint& kp : crash::all_kill_points()) {
    if (kp.leaves_unmarked_record() || kp.phase_index == pmem::kFirstDurablePhase) {
      points.push_back(kp);
    }
  }
  return points;
}

// ---------------------------------------------- long log, three lanes --
constexpr int kLaneThreads = 3;
// Per thread, before the barrier: 8-word transfers fill 1,023 per chunk,
// so every lane has filled 3 chunks and opened its 4th.
constexpr int kLanePre = static_cast<int>(3 * PersistentDomain::kPopulateChunkWords / 8) + 50;
constexpr int kLanePost = 200;

/// Child side: thread t runs plan_txn(0..) on accounts [4t, 4t + 4), and
/// waits at kLanePre until every thread got there.
template <class H>
void run_lane_child(TmUniverse<H>& u, const char* path, const AccountStore& store) {
  with_path_tm(u, path, [&](auto& tm) {
    std::atomic<int> arrived{0};
    auto worker = [&](int t) {
      typename std::decay_t<decltype(tm)>::ThreadCtx ctx(tm);
      const auto base = static_cast<std::uint64_t>(t) * kAccounts;
      for (int i = 0; i < kLanePre + kLanePost; ++i) {
        if (i == kLanePre) {
          arrived.fetch_add(1);
          while (arrived.load() < kLaneThreads) std::this_thread::yield();
        }
        const Plan p = plan_txn(i);
        bool ok = false;
        tm.atomically(ctx, [&](auto& h) {
          ok = store.transfer(h, base + p.from, base + p.to, p.amount);
        });
        child_require(ok, 3);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kLaneThreads; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();
  });
}

/// `strict` = sim: the tl2 points, which every commit of a Tl2 child
/// passes, must fire. Other paths may spill commits onto a sibling path
/// under concurrency, so their children may complete instead.
template <class H>
void lane_long_log_sweep(bool strict) {
  for (const KillPoint& kp : log_tail_kill_points()) {
    UniverseConfig ucfg;
    ucfg.durable = true;
    TmUniverse<H> u(ucfg);
    AccountStore store(kLaneThreads * kAccounts, kInitial, /*shards=*/2);
    const std::string name = kp.name();

    const ChildOutcome outcome = crash::run_crash_child([&] {
      pmem::arm_kill(name.c_str(), kLaneThreads * kLanePre + kLanePost);
      run_lane_child(u, kp.path, store);
    });
    CHECK(outcome != ChildOutcome::kFailed);
    if (strict && std::strcmp(kp.path, pmem::kPathTl2) == 0) {
      CHECK(outcome == ChildOutcome::kKilled);
    }
    if (outcome == ChildOutcome::kFailed) {
      std::printf("    kill point %s: child %s\n", name.c_str(), crash::to_string(outcome));
      continue;
    }

    PersistentDomain& pd = u.pmem();
    std::size_t discarded = 0;
    const auto txns = pd.recover_log(&discarded);
    CHECK(!pd.log_overflowed());
    CHECK(discarded <= static_cast<std::size_t>(kLaneThreads));
    if (outcome == ChildOutcome::kKilled && kp.leaves_unmarked_record()) CHECK(discarded >= 1);

    std::unordered_map<std::uint64_t, std::size_t> account_of;
    for (std::size_t a = 0; a < kLaneThreads * kAccounts; ++a) {
      account_of[reinterpret_cast<std::uintptr_t>(store.account_cell(a))] = a;
    }
    TmWord oracle[kLaneThreads][kAccounts];
    for (auto& row : oracle) {
      for (auto& b : row) b = kInitial;
    }
    int done[kLaneThreads] = {};
    std::set<std::uint64_t> chunks[kLaneThreads];
    bool prefix = true;
    for (const auto& t : txns) {
      const auto src = t.entries.empty() ? account_of.end() : account_of.find(t.entries[0].addr);
      prefix = t.entries.size() == 2 && src != account_of.end();
      if (!prefix) break;
      const std::size_t th = src->second / kAccounts;
      const Plan p = plan_txn(done[th]++);
      oracle[th][p.from] -= p.amount;
      oracle[th][p.to] += p.amount;
      prefix = src->second == th * kAccounts + p.from &&
               t.entries[1].addr ==
                   reinterpret_cast<std::uintptr_t>(store.account_cell(th * kAccounts + p.to)) &&
               t.entries[0].value == oracle[th][p.from] && t.entries[1].value == oracle[th][p.to];
      if (!prefix) break;
      chunks[th].insert(t.record / PersistentDomain::kPopulateChunkWords);
    }
    CHECK(prefix);
    if (!prefix) continue;
    for (int th = 0; th < kLaneThreads; ++th) {
      CHECK(done[th] >= kLanePre);
      CHECK(chunks[th].size() >= 4);
    }

    crash::apply_recovered_cells(pd);
    TmWord sum = 0;
    for (std::size_t a = 0; a < kLaneThreads * kAccounts; ++a) {
      CHECK_EQ(store.unsafe_balance(a), oracle[a / kAccounts][a % kAccounts]);
      sum += store.unsafe_balance(a);
    }
    CHECK_EQ(sum, store.total_minted());
  }
}

void test_sweep_sim() {
  kill_point_sweep<HtmSim>(/*strict=*/true, crash::all_kill_points(), kKillHit, kTxnsPerChild);
}
void test_long_log_sweep_sim() {
  kill_point_sweep<HtmSim>(/*strict=*/true, log_tail_kill_points(), kLongKillHit,
                           kLongTxnsPerChild);
}
void test_concurrent_sim() { concurrent_recovery_oracle<HtmSim>(); }
void test_lane_long_log_sim() { lane_long_log_sweep<HtmSim>(/*strict=*/true); }

void test_sweep_rtm_when_viable() {
#if defined(__RTM__)
  if (HtmRtm::hardware_viable()) {
    kill_point_sweep<HtmRtm>(/*strict=*/false, crash::all_kill_points(), kKillHit,
                             kTxnsPerChild);
    return;
  }
#endif
  std::printf("    (no usable RTM on this host; sim leg covers the contract)\n");
}

void test_concurrent_rtm_when_viable() {
#if defined(__RTM__)
  if (HtmRtm::hardware_viable()) {
    concurrent_recovery_oracle<HtmRtm>();
    return;
  }
#endif
  std::printf("    (no usable RTM on this host; sim leg covers the contract)\n");
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      {"kill_point_sweep_every_path_sim", rhtm::test_sweep_sim},
      {"kill_point_sweep_long_log_sim", rhtm::test_long_log_sweep_sim},
      {"concurrent_recovery_oracle_sim", rhtm::test_concurrent_sim},
      {"kill_point_sweep_three_lane_long_log_sim", rhtm::test_lane_long_log_sim},
      {"kill_point_sweep_rtm_when_viable", rhtm::test_sweep_rtm_when_viable},
      {"concurrent_recovery_oracle_rtm_when_viable", rhtm::test_concurrent_rtm_when_viable},
  });
}
