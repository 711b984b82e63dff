// Durability-mode contracts that need no crash (tests/durable_crash_test.cpp
// owns the fork-based ones):
//
//  * zero-overhead leak test — a NON-durable universe emits exactly zero
//    persist fences across every protocol (the process-global fence tallies
//    in core/pmem.h make any leak into existing scenarios visible).
//  * exact fence placement — each durable commit of n write entries costs
//    pwb = 2n+2 (log header + n log entries + marker + n image write-backs),
//    pfence = 2 (log→marker, marker→apply) and psync = 1 (apply drain), on
//    every durable path; read-only transactions cost zero.
//  * durable == recovered — after a concurrent durable run (no crash),
//    prefix-replaying the redo log reproduces the live in-memory state
//    exactly, the durable image agrees, and nothing is discarded; the
//    per-thread fence tallies sum to exactly 6 / 2 / 1 per logged commit.
//  * redo-log semantics — an unmarked record is discarded by recovery, a
//    marked one is replayed into the image, recovery is idempotent.
//  * linear recovery — a 10^5-record log with out-of-order, missing,
//    premature and out-of-range markers recovers exactly the marked
//    records, in marker order, with the rest counted as discarded; under
//    concurrent appends txids stay dense (drawn under the append lock).
//  * populate-ahead window — after a log spanning several chunks the
//    populated frontier sits within two chunks past the head, fences stay
//    6 / 2 / 1 per commit and recovery leaves the image unchanged; a log
//    smaller than one chunk fills, then overflows stickily.
//  * durable routing — PhasedTm and StandardHytm route durable universes
//    through their (redo-logged) software paths; HtmOnly documents its
//    opt-out and emits nothing.

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"
#include "workloads/account_store.h"

namespace rhtm {
namespace {

struct FenceTotals {
  std::uint64_t pwb, pfence, psync;
};

FenceTotals global_fences() {
  return {pmem::g_total_pwb.load(), pmem::g_total_pfence.load(), pmem::g_total_psync.load()};
}

template <class Tm>
void churn(Tm& tm, const AccountStore& store, int txns) {
  typename Tm::ThreadCtx ctx(tm);
  for (int i = 0; i < txns; ++i) {
    tm.atomically(ctx, [&](auto& h) {
      (void)store.transfer(h, static_cast<std::uint64_t>(i % 8),
                           static_cast<std::uint64_t>((i + 3) % 8), 1);
    });
  }
}

// ------------------------------------------------------- zero-fence leak --
template <class H>
void non_durable_zero_fences() {
  const FenceTotals before = global_fences();
  TmUniverse<H> u;
  CHECK(!u.durable());
  AccountStore store(8, 100, 2);
  {
    Tl2<H> tm(u);
    churn(tm, store, 20);
  }
  {
    HybridTm<H> tm(u);
    churn(tm, store, 20);
  }
  {
    HybridNorec<H> tm(u);
    churn(tm, store, 20);
  }
  {
    PhasedTm<H> tm(u);
    churn(tm, store, 20);
  }
  {
    StandardHytm<H> tm(u);
    churn(tm, store, 20);
  }
  {
    HtmOnly<H> tm(u);
    churn(tm, store, 20);
  }
  const FenceTotals after = global_fences();
  CHECK_EQ(after.pwb, before.pwb);
  CHECK_EQ(after.pfence, before.pfence);
  CHECK_EQ(after.psync, before.psync);
  CHECK_EQ(store.unsafe_total(), store.total_minted());
}

// -------------------------------------------------- exact fence placement --
/// Deterministic always-succeeding transfers: single-threaded, so commit
/// count == transaction count on every forced path.
template <class Tm>
void churn_planned(Tm& tm, const AccountStore& store, int txns) {
  typename Tm::ThreadCtx ctx(tm);
  for (int i = 0; i < txns; ++i) {
    bool ok = false;
    tm.atomically(ctx, [&](auto& h) {
      ok = store.transfer(h, static_cast<std::uint64_t>(i % 4),
                          static_cast<std::uint64_t>((i + 1) % 4), 1);
    });
    CHECK(ok);
  }
}

/// Runs `txns` two-write transfers through one forced durable path and
/// checks the per-commit fence arithmetic exactly.
template <class H, class RunTm>
void fence_placement_case(const char* label, RunTm&& run_tm, int txns) {
  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<H> u(ucfg);
  AccountStore store(8, 100, 2);
  run_tm(u, store, txns);
  const FenceCounts fc = u.pmem().fence_counts();
  const std::uint64_t n = 2;  // writes per transfer
  const auto t = static_cast<std::uint64_t>(txns);
  CHECK_EQ(fc.pwb, (2 * n + 2) * t);
  CHECK_EQ(fc.pfence, 2 * t);
  CHECK_EQ(fc.psync, t);
  // One data record + one marker per commit, none discarded.
  std::size_t discarded = 0;
  CHECK_EQ(u.pmem().recover_log(&discarded).size(), static_cast<std::size_t>(txns));
  CHECK_EQ(discarded, std::size_t{0});
  (void)label;
}

template <class H>
void fence_placement_all_paths() {
  constexpr int kTxns = 5;
  fence_placement_case<H>(
      "tl2",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        Tl2<H> tm(u);
        churn_planned(tm, s, n);
      },
      kTxns);
  fence_placement_case<H>(
      "rh1_fast",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        typename HybridTm<H>::Config cfg;
        cfg.slow_retry_percent = 0;
        HybridTm<H> tm(u, cfg);
        churn_planned(tm, s, n);
      },
      kTxns);
  fence_placement_case<H>(
      "rh1",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        typename HybridTm<H>::Config cfg;
        cfg.force_slow_path = true;
        HybridTm<H> tm(u, cfg);
        churn_planned(tm, s, n);
      },
      kTxns);
  fence_placement_case<H>(
      "rh2",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        typename HybridTm<H>::Config cfg;
        cfg.force_rh2 = true;
        HybridTm<H> tm(u, cfg);
        churn_planned(tm, s, n);
      },
      kTxns);
  fence_placement_case<H>(
      "norec_hw",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        HybridNorec<H> tm(u);
        churn_planned(tm, s, n);
      },
      kTxns);
  fence_placement_case<H>(
      "norec_sw",
      [](TmUniverse<H>& u, const AccountStore& s, int n) {
        typename HybridNorec<H>::Config cfg;
        cfg.max_hw_attempts = 0;
        HybridNorec<H> tm(u, cfg);
        churn_planned(tm, s, n);
      },
      kTxns);
}

template <class H>
void read_only_costs_no_fences() {
  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<H> u(ucfg);
  AccountStore store(8, 100, 2);
  Tl2<H> tl2(u);
  typename Tl2<H>::ThreadCtx tctx(tl2);
  TmWord sum = 0;
  tl2.atomically(tctx, [&](auto& h) { sum = store.audit(h); });
  CHECK_EQ(sum, store.total_minted());
  HybridTm<H> hy(u);
  typename HybridTm<H>::ThreadCtx hctx(hy);
  hy.atomically(hctx, [&](auto& h) { sum = store.balance(h, 3); });
  CHECK_EQ(sum, TmWord{100});
  const FenceCounts fc = u.pmem().fence_counts();
  CHECK_EQ(fc.total(), std::uint64_t{0});
}

// --------------------------------------------------- durable == recovered --
template <class H>
void durable_equals_recovered() {
  const FenceTotals before = global_fences();
  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<H> u(ucfg);
  constexpr std::size_t kAccounts = 16;
  AccountStore store(kAccounts, 1000, 4);
  HybridTm<H> tm(u);  // default mixed-mode: fast, reduced and escalated commits
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xD00Dull + static_cast<std::uint64_t>(t));
      typename HybridTm<H>::ThreadCtx ctx(tm);
      for (int i = 0; i < 500; ++i) {
        const auto from = rng.next_u64() % kAccounts;
        const auto to = rng.next_u64() % kAccounts;
        tm.atomically(ctx, [&](auto& h) { (void)store.transfer(h, from, to, rng.next_u64() % 7 + 1); });
      }
    });
  }
  for (auto& t : threads) t.join();

  PersistentDomain& pd = u.pmem();
  std::size_t discarded = 0;
  const auto txns = pd.recover_log(&discarded);
  CHECK_EQ(discarded, std::size_t{0});  // no crash: every logged txn is marked
  CHECK(!pd.log_overflowed());
  CHECK(!txns.empty());

  // Prefix-replay the log: the result must BE the live in-memory state —
  // marker order is serialization order.
  std::vector<TmWord> bal(kAccounts, 1000);
  for (const auto& t : txns) {
    CHECK_EQ(t.entries.size(), std::size_t{2});
    for (const auto& e : t.entries) {
      for (std::size_t a = 0; a < kAccounts; ++a) {
        if (e.addr == reinterpret_cast<std::uintptr_t>(store.account_cell(a))) bal[a] = e.value;
      }
    }
  }
  TmWord sum = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) {
    CHECK_EQ(bal[a], store.unsafe_balance(a));
    TmWord img = 0;
    CHECK(pd.image_lookup(store.account_cell(a), &img) || bal[a] == 1000);
    if (pd.image_lookup(store.account_cell(a), &img)) CHECK_EQ(img, bal[a]);
    sum += bal[a];
  }
  CHECK_EQ(sum, store.total_minted());

  // The per-thread fence tallies sum exactly after the join: every durable
  // commit here writes two accounts, so 2n+2 = 6 pwb, 2 pfence, 1 psync.
  const std::uint64_t r = txns.size();
  const FenceCounts fc = pd.fence_counts();
  CHECK_EQ(fc.pwb, 6 * r);
  CHECK_EQ(fc.pfence, 2 * r);
  CHECK_EQ(fc.psync, r);
  const FenceTotals after = global_fences();
  CHECK_EQ(after.pwb - before.pwb, fc.pwb);
  CHECK_EQ(after.pfence - before.pfence, fc.pfence);
  CHECK_EQ(after.psync - before.psync, fc.psync);
}

// ------------------------------------------------------ redo-log semantics --
void unmarked_record_discarded() {
  PersistentDomain pd;
  TmCell a, b;
  std::vector<pmem::CapturedWrite> writes{{&a, 11}, {&b, 22}};

  // Logged but never marked: recovery discards it, the image stays empty.
  (void)pd.durable_log(writes, pmem::kPathTl2);
  PersistentDomain::RecoveryStats st = pd.recover();
  CHECK_EQ(st.committed, std::size_t{0});
  CHECK_EQ(st.discarded, std::size_t{1});
  TmWord v = 0;
  CHECK(!pd.image_lookup(&a, &v));

  // Logged AND marked (no apply — the crash-mid-apply shape): recovery
  // replays it into the image; a second recovery is idempotent.
  const std::uint64_t txid = pd.durable_log(writes, pmem::kPathTl2);
  pd.durable_mark(txid, pmem::kPathTl2);
  st = pd.recover();
  CHECK_EQ(st.committed, std::size_t{1});
  CHECK_EQ(st.discarded, std::size_t{1});
  CHECK_EQ(st.entries_applied, std::size_t{2});
  CHECK(pd.image_lookup(&a, &v));
  CHECK_EQ(v, TmWord{11});
  CHECK(pd.image_lookup(&b, &v));
  CHECK_EQ(v, TmWord{22});
  st = pd.recover();
  CHECK_EQ(st.committed, std::size_t{1});
  CHECK_EQ(st.entries_applied, std::size_t{2});
}

// ------------------------------------------------------- linear recovery --
void long_log_recovers_marked_in_marker_order() {
  constexpr std::size_t kRecords = 100000;
  constexpr std::size_t kBatch = 8;  // records logged before their batch's markers
  PersistentDomain pd;
  TmCell cells[kBatch];
  Xoshiro256 rng(0x10A6ull);
  std::vector<TmWord> value_of_txid(kRecords + 1, 0);
  std::vector<std::uint64_t> expect_order;  // marker order
  std::size_t expect_discarded = 0;
  std::uint64_t txids[kBatch];
  for (std::size_t base = 0; base < kRecords; base += kBatch) {
    // A marker ahead of its record (the next txid) matches nothing: it
    // names no record before it, so that record stays unmarked.
    const bool premature = base % 1000 == 0;
    if (premature) pd.durable_mark(base + 1, pmem::kPathTl2);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const TmWord v = rng.next_u64();
      const pmem::CapturedWrite w[1] = {{&cells[i], v}};
      txids[i] = pd.durable_log(w, pmem::kPathTl2);
      CHECK_EQ(txids[i], static_cast<std::uint64_t>(base + i + 1));  // dense, in log order
      value_of_txid[txids[i]] = v;
    }
    for (std::size_t i = kBatch - 1; i > 0; --i) {
      std::swap(txids[i], txids[rng.next_u64() % (i + 1)]);
    }
    for (std::uint64_t txid : txids) {
      if ((premature && txid == base + 1) || rng.next_u64() % 5 == 0) {
        ++expect_discarded;
        continue;
      }
      pd.durable_mark(txid, pmem::kPathTl2);
      expect_order.push_back(txid);
    }
    if (base % 4096 == 0) {
      pd.durable_mark(0, pmem::kPathTl2);                  // below every txid
      pd.durable_mark(~std::uint64_t{0}, pmem::kPathTl2);  // far beyond the log
    }
  }
  CHECK(!pd.log_overflowed());

  std::size_t discarded = 0;
  const auto txns = pd.recover_log(&discarded);
  CHECK_EQ(discarded, expect_discarded);
  CHECK_EQ(txns.size(), expect_order.size());
  if (txns.size() != expect_order.size()) return;
  bool same = true;
  for (std::size_t k = 0; k < txns.size() && same; ++k) {
    const auto& t = txns[k];
    same = t.txid == expect_order[k] && t.entries.size() == 1 &&
           t.entries[0].value == value_of_txid[t.txid] &&
           (k == 0 || t.marker_pos > txns[k - 1].marker_pos);
  }
  CHECK(same);
}

/// Threads appending log + marker pairs straight into one domain: every
/// txid is drawn under the append lock, so the records carry 1..N in log
/// order and every marker finds its record. The populate-ahead frontier,
/// claimed concurrently, ends within two chunks past the head.
void concurrent_appends_keep_txids_dense() {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  constexpr std::size_t kTotal = kThreads * kPerThread;
  PersistentDomain pd;
  TmCell cells[kThreads];
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const pmem::CapturedWrite w[1] = {{&cells[t], static_cast<TmWord>(i)}};
        pd.durable_mark(pd.durable_log(w, pmem::kPathTl2), pmem::kPathTl2);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::size_t discarded = 0;
  const auto txns = pd.recover_log(&discarded);
  CHECK_EQ(discarded, std::size_t{0});
  CHECK_EQ(txns.size(), kTotal);
  std::vector<bool> seen(kTotal + 1, false);
  bool dense = true;
  for (const auto& t : txns) {
    dense = dense && t.txid >= 1 && t.txid <= kTotal && !seen[t.txid];
    if (dense) seen[t.txid] = true;
  }
  CHECK(dense);
  const std::uint64_t head = 6 * kTotal;  // 4-word record + 2-word marker each
  CHECK(pd.log_populated() >= head);
  CHECK(pd.log_populated() <= head + 2 * PersistentDomain::kPopulateChunkWords);
}

// -------------------------------------------------- populate-ahead window --
constexpr std::uint64_t kWordsPerTransfer = 8;  // 6-word record + 2-word marker

template <class H>
void populate_window_tracks_head() {
  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<H> u(ucfg);
  AccountStore store(8, 100, 2);
  constexpr std::uint64_t kChunk = PersistentDomain::kPopulateChunkWords;
  const auto txns = static_cast<int>(4 * kChunk / kWordsPerTransfer + 100);
  {
    HybridTm<H> tm(u);
    churn_planned(tm, store, txns);
  }
  PersistentDomain& pd = u.pmem();
  const std::uint64_t head = kWordsPerTransfer * static_cast<std::uint64_t>(txns);
  CHECK(pd.log_populated() >= head);
  CHECK(pd.log_populated() <= head + 2 * kChunk);

  const auto t = static_cast<std::uint64_t>(txns);
  const FenceCounts fc = pd.fence_counts();
  CHECK_EQ(fc.pwb, 6 * t);
  CHECK_EQ(fc.pfence, 2 * t);
  CHECK_EQ(fc.psync, t);

  std::vector<std::pair<std::uint64_t, TmWord>> before, after;
  pd.for_each_image([&](std::uint64_t a, TmWord v) { before.emplace_back(a, v); });
  const PersistentDomain::RecoveryStats st = pd.recover();
  pd.for_each_image([&](std::uint64_t a, TmWord v) { after.emplace_back(a, v); });
  CHECK_EQ(st.committed, static_cast<std::size_t>(txns));
  CHECK_EQ(st.discarded, std::size_t{0});
  CHECK(before == after);
  CHECK(!before.empty());
}

template <class H>
void small_log_fills_then_overflows() {
  constexpr int kFit = 125;
  UniverseConfig ucfg;
  ucfg.durable = true;
  // Smaller than one chunk, and 2 words past kFit transfers: the first
  // transfer that does not fit still appends its (txid-0) marker, which
  // recovery must leave unmatched.
  ucfg.pmem.log_words = kFit * kWordsPerTransfer + 2;
  CHECK(ucfg.pmem.log_words < PersistentDomain::kPopulateChunkWords);
  TmUniverse<H> u(ucfg);
  AccountStore store(8, 100, 2);
  PersistentDomain& pd = u.pmem();
  Tl2<H> tm(u);
  std::size_t discarded = 0;

  churn_planned(tm, store, kFit);
  CHECK(!pd.log_overflowed());
  CHECK_EQ(pd.log_populated(), static_cast<std::uint64_t>(ucfg.pmem.log_words));
  CHECK_EQ(pd.recover_log(&discarded).size(), static_cast<std::size_t>(kFit));

  for (int round = 0; round < 3; ++round) {
    churn_planned(tm, store, 5);
    CHECK(pd.log_overflowed());  // sticky
    CHECK_EQ(pd.recover_log(&discarded).size(), static_cast<std::size_t>(kFit));
    CHECK_EQ(discarded, std::size_t{0});
  }
  // A record that does not fit gets no txid.
  TmCell c;
  const pmem::CapturedWrite w[1] = {{&c, 1}};
  CHECK_EQ(pd.durable_log(w, pmem::kPathTl2), std::uint64_t{0});
  CHECK_EQ(store.unsafe_total(), store.total_minted());
}

// ------------------------------------------------------- durable routing --
template <class H>
void guarded_protocols_route_software() {
  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<H> u(ucfg);
  AccountStore store(8, 100, 2);
  {
    PhasedTm<H> tm(u);
    churn(tm, store, 10);
  }
  const FenceCounts after_phased = u.pmem().fence_counts();
  CHECK(after_phased.psync >= 10);  // every phased commit persisted (software path)
  {
    StandardHytm<H> tm(u);
    churn(tm, store, 10);
  }
  const FenceCounts after_std = u.pmem().fence_counts();
  CHECK(after_std.psync >= after_phased.psync + 10);
  CHECK_EQ(store.unsafe_total(), store.total_minted());
  // HtmOnly documents its durability opt-out: it runs, but persists nothing.
  {
    HtmOnly<H> tm(u);
    churn(tm, store, 10);
  }
  CHECK_EQ(u.pmem().fence_counts().psync, after_std.psync);
}

void test_zero_fences_sim() { non_durable_zero_fences<HtmSim>(); }
void test_zero_fences_emul() { non_durable_zero_fences<HtmEmul>(); }
void test_fence_placement_sim() { fence_placement_all_paths<HtmSim>(); }
void test_read_only_sim() { read_only_costs_no_fences<HtmSim>(); }
void test_durable_equals_recovered_sim() { durable_equals_recovered<HtmSim>(); }
void test_redo_log_semantics() { unmarked_record_discarded(); }
void test_guarded_protocols_sim() { guarded_protocols_route_software<HtmSim>(); }
void test_long_log_recovery() { long_log_recovers_marked_in_marker_order(); }
void test_concurrent_appends() { concurrent_appends_keep_txids_dense(); }
void test_populate_window_sim() { populate_window_tracks_head<HtmSim>(); }
void test_small_log_overflow_sim() { small_log_fills_then_overflows<HtmSim>(); }

void test_fence_placement_rtm_when_viable() {
#if defined(__RTM__)
  if (HtmRtm::hardware_viable()) {
    fence_placement_all_paths<HtmRtm>();
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
      {"non_durable_mode_emits_zero_fences_sim", rhtm::test_zero_fences_sim},
      {"non_durable_mode_emits_zero_fences_emul", rhtm::test_zero_fences_emul},
      {"fence_placement_exact_all_paths_sim", rhtm::test_fence_placement_sim},
      {"read_only_costs_no_fences", rhtm::test_read_only_sim},
      {"durable_equals_recovered_no_crash_sim", rhtm::test_durable_equals_recovered_sim},
      {"redo_log_unmarked_discarded_marked_replayed", rhtm::test_redo_log_semantics},
      {"phased_and_standard_route_durable_software", rhtm::test_guarded_protocols_sim},
      {"long_log_recovery_linear_marker_order", rhtm::test_long_log_recovery},
      {"concurrent_appends_keep_txids_dense", rhtm::test_concurrent_appends},
      {"populate_window_tracks_head_sim", rhtm::test_populate_window_sim},
      {"small_log_fills_then_overflows_sticky_sim", rhtm::test_small_log_overflow_sim},
      {"fence_placement_rtm_when_viable", rhtm::test_fence_placement_rtm_when_viable},
  });
}
