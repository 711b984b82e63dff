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
//  * log words per commit — an n-write commit appends exactly 2n+4 log
//    words (record 2n+2, marker 2), which equals its pwb + pfence tally.
//  * long-log recovery — a 10^5-record log with out-of-order, missing,
//    premature and bogus (0, past the log, mid-record) markers recovers
//    exactly the marked records, in marker order, with the rest counted
//    as discarded; under concurrent appends every seq in 1..N appears
//    once and every commit is recovered once.
//  * lanes — the chunks claimed hold what was written plus at most one
//    chunk per lane, fences stay 6 / 2 / 1 per commit and recovery leaves
//    the image unchanged; a record larger than a chunk spans chunks and
//    round-trips; a log smaller than one chunk fills, then overflows
//    stickily, and the overflow stops every lane.
//  * durable routing — PhasedTm and StandardHytm route durable universes
//    through their (redo-logged) software paths; HtmOnly documents its
//    opt-out and emits nothing.

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
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
  const std::uint64_t record = pd.durable_log(writes, pmem::kPathTl2);
  pd.durable_mark(record);
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

// ---------------------------------------------------- log words per commit --
/// Single-threaded persist() of n-write commits: consecutive records sit
/// 2n+4 words apart, the marker 2n+2 words after its record, and the
/// commit's pwb + pfence tally is the same 2n+4 (rhbench subtracts that
/// tally, in words, from its resident memory as the log's share).
void log_words_equal_fence_tally() {
  PersistentDomain pd;
  TmCell cells[5];
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::vector<pmem::CapturedWrite> writes;
    for (std::size_t i = 0; i < n; ++i) writes.push_back({&cells[i], static_cast<TmWord>(i)});
    constexpr int kCommits = 4;
    const FenceCounts before = pd.fence_counts();
    for (int k = 0; k < kCommits; ++k) pd.persist(writes, pmem::kPathTl2, nullptr, [] {});
    const FenceCounts after = pd.fence_counts();
    const std::uint64_t words = 2 * n + 4;
    CHECK_EQ((after.pwb + after.pfence) - (before.pwb + before.pfence), kCommits * words);

    const auto txns = pd.recover_log();
    CHECK(txns.size() >= static_cast<std::size_t>(kCommits));
    if (txns.size() < static_cast<std::size_t>(kCommits)) return;
    for (std::size_t k = txns.size() - kCommits; k < txns.size(); ++k) {
      CHECK_EQ(txns[k].entries.size(), n);
      CHECK_EQ(txns[k].marker_pos - txns[k].record, words - 2);
      if (k > txns.size() - kCommits) CHECK_EQ(txns[k].record - txns[k - 1].record, words);
    }
  }
}

// ------------------------------------------------------ long-log recovery --
/// Where a single thread's appends land in a fresh domain: the lane fills
/// chunk after chunk, each starting with its header word.
struct LaneTracker {
  std::uint64_t next = 1;  // chunk 0's header word sits at position 0
  std::uint64_t append(std::uint64_t words) {
    constexpr std::uint64_t kChunk = PersistentDomain::kPopulateChunkWords;
    if (next % kChunk + words > kChunk) next = (next / kChunk + 1) * kChunk + 1;
    const std::uint64_t at = next;
    next += words;
    return at;
  }
};

void long_log_recovers_marked_in_marker_order() {
  constexpr std::size_t kRecords = 100000;
  constexpr std::size_t kBatch = 8;  // records logged before their batch's markers
  PersistentDomain pd;
  LaneTracker lane;
  TmCell cells[kBatch];
  Xoshiro256 rng(0x10A6ull);
  std::unordered_map<std::uint64_t, TmWord> value_of;  // record position -> value
  std::vector<std::uint64_t> expect_order;  // record positions, in marker order
  std::size_t expect_discarded = 0;
  std::uint64_t records[kBatch];
  auto mark = [&](std::uint64_t record) {
    pd.durable_mark(record);
    (void)lane.append(2);
  };
  for (std::size_t base = 0; base < kRecords; base += kBatch) {
    // A marker ahead of its record (the position the next record gets)
    // matches nothing: it names no record before it, so that record
    // stays unmarked.
    const bool premature = base % 1000 == 0;
    if (premature) {
      LaneTracker ahead = lane;
      (void)ahead.append(2);
      mark(ahead.append(4));
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      const TmWord v = rng.next_u64();
      const pmem::CapturedWrite w[1] = {{&cells[i], v}};
      records[i] = pd.durable_log(w, pmem::kPathTl2);
      CHECK_EQ(records[i], lane.append(4));  // 4-word records, in log order
      value_of[records[i]] = v;
    }
    const std::uint64_t first = records[0];
    for (std::size_t i = kBatch - 1; i > 0; --i) {
      std::swap(records[i], records[rng.next_u64() % (i + 1)]);
    }
    for (std::uint64_t record : records) {
      if ((premature && record == first) || rng.next_u64() % 5 == 0) {
        ++expect_discarded;
        continue;
      }
      mark(record);
      expect_order.push_back(record);
    }
    if (base % 4096 == 0) {
      mark(0);                   // a chunk header, never a record
      mark(~std::uint64_t{0});   // far beyond the log
      mark(first + 2);           // inside a record
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
    same = t.record == expect_order[k] && t.entries.size() == 1 &&
           t.entries[0].value == value_of[t.record] &&
           (k == 0 || (t.seq > txns[k - 1].seq && t.marker_pos > txns[k - 1].marker_pos));
  }
  CHECK(same);
}

/// Threads appending log + marker pairs straight into one domain, each on
/// its own lane: every seq in 1..N is drawn exactly once, every commit is
/// recovered exactly once, and the chunks claimed hold the words written
/// plus at most one chunk per lane.
void concurrent_appends_keep_seqs_dense() {
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
        pd.durable_mark(pd.durable_log(w, pmem::kPathTl2));
      }
    });
  }
  for (auto& th : threads) th.join();

  std::size_t discarded = 0;
  const auto txns = pd.recover_log(&discarded);
  CHECK_EQ(discarded, std::size_t{0});
  CHECK_EQ(txns.size(), kTotal);
  std::vector<bool> seq_seen(kTotal + 1, false);
  std::vector<bool> commit_seen(kTotal, false);
  bool once = true;
  for (std::size_t k = 0; k < txns.size() && once; ++k) {
    const auto& t = txns[k];
    once = t.seq == k + 1 && !seq_seen[t.seq] && t.entries.size() == 1;
    if (!once) break;
    seq_seen[t.seq] = true;
    std::size_t thread = kThreads;
    for (std::size_t c = 0; c < kThreads; ++c) {
      if (t.entries[0].addr == reinterpret_cast<std::uintptr_t>(&cells[c])) thread = c;
    }
    const auto i = static_cast<std::size_t>(t.entries[0].value);
    once = thread < kThreads && i < kPerThread && !commit_seen[thread * kPerThread + i];
    if (once) commit_seen[thread * kPerThread + i] = true;
  }
  CHECK(once);
  const std::uint64_t written = 6 * kTotal;  // 4-word record + 2-word marker each
  CHECK(pd.log_populated() >= written);
  CHECK(pd.log_populated() <= written + kThreads * PersistentDomain::kPopulateChunkWords);
}

// ------------------------------------------------------------------ lanes --
constexpr std::uint64_t kWordsPerTransfer = 8;  // 6-word record + 2-word marker

template <class H>
void populated_log_tracks_written() {
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
  const std::uint64_t written = kWordsPerTransfer * static_cast<std::uint64_t>(txns);
  CHECK(pd.log_populated() >= written);
  CHECK(pd.log_populated() <= written + kChunk);  // one lane

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

/// A record of more than one chunk's worth of pairs claims a multi-chunk
/// span; the lane keeps appending into the span's last chunk, another
/// lane's chunk follows it, and recovery walks all of them. The values
/// have their high bits set: a scan that read the word at the span's
/// second chunk as a chunk header would skip the chunks after it.
void record_spanning_chunks_round_trips() {
  constexpr std::size_t kBig = 5000;  // pairs: 10,002 words > one 8,192-word chunk
  PersistentDomain pd;
  std::vector<TmCell> cells(kBig);
  auto value = [](std::size_t i) { return ~static_cast<TmWord>(i); };
  std::vector<pmem::CapturedWrite> big;
  for (std::size_t i = 0; i < kBig; ++i) big.push_back({&cells[i], value(i)});
  const pmem::CapturedWrite small[1] = {{&cells[0], 99}};

  pd.durable_mark(pd.durable_log(small, pmem::kPathTl2));  // chunk 0
  const std::uint64_t big_at = pd.durable_log(big, pmem::kPathTl2);
  pd.durable_mark(big_at);
  CHECK_EQ(big_at, std::uint64_t{PersistentDomain::kPopulateChunkWords + 1});  // chunks 1-2
  const std::uint64_t after_big = pd.durable_log(small, pmem::kPathTl2);
  pd.durable_mark(after_big);
  CHECK_EQ(after_big, big_at + 2 * kBig + 2 + 2);  // the span's tail, after the marker
  std::uint64_t other = 0;
  std::thread([&] {
    other = pd.durable_log(small, pmem::kPathTl2);
    pd.durable_mark(other);
  }).join();
  CHECK_EQ(other, std::uint64_t{3 * PersistentDomain::kPopulateChunkWords + 1});
  CHECK_EQ(pd.log_populated(), std::uint64_t{4 * PersistentDomain::kPopulateChunkWords});

  std::size_t discarded = 0;
  const auto txns = pd.recover_log(&discarded);
  CHECK_EQ(discarded, std::size_t{0});
  CHECK_EQ(txns.size(), std::size_t{4});
  if (txns.size() != 4) return;
  CHECK_EQ(txns[1].record, big_at);
  CHECK_EQ(txns[1].entries.size(), kBig);
  bool intact = txns[1].entries.size() == kBig;
  for (std::size_t i = 0; i < kBig && intact; ++i) {
    intact = txns[1].entries[i].addr == reinterpret_cast<std::uintptr_t>(&cells[i]) &&
             txns[1].entries[i].value == value(i);
  }
  CHECK(intact);
  CHECK_EQ(txns[2].record, after_big);
  CHECK_EQ(txns[3].record, other);
}

template <class H>
void small_log_fills_then_overflows() {
  constexpr int kFit = 125;
  UniverseConfig ucfg;
  ucfg.durable = true;
  // Smaller than one chunk, so the log is one chunk clamped to its end:
  // the header word, kFit transfers and 2 spare words. The first record
  // that does not fit sets the sticky overflow, so its marker is not
  // appended although the spare words would hold it.
  ucfg.pmem.log_words = 1 + kFit * kWordsPerTransfer + 2;
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
  // Past the overflow a commit appends nothing: its pwb are the apply's 2.
  CHECK_EQ(pd.fence_counts().pwb, std::uint64_t{6 * kFit + 2 * 15});
  // A record that does not fit gets position 0, which no record has.
  TmCell c;
  const pmem::CapturedWrite w[1] = {{&c, 1}};
  CHECK_EQ(pd.durable_log(w, pmem::kPathTl2), std::uint64_t{0});
  CHECK_EQ(store.unsafe_total(), store.total_minted());
}

/// The lane that hits the end sets the overflow; a lane with room left in
/// its own chunk stops appending too.
void overflow_stops_every_lane() {
  PmemConfig cfg;
  cfg.log_words = PersistentDomain::kPopulateChunkWords + 100;  // chunk 1 holds 99 words
  PersistentDomain pd(cfg);
  TmCell a, b;
  const pmem::CapturedWrite wa[1] = {{&a, 1}};
  pd.durable_mark(pd.durable_log(wa, pmem::kPathTl2));  // this thread's lane: chunk 0
  std::size_t appended = 0;
  std::thread([&] {
    const pmem::CapturedWrite wb[1] = {{&b, 2}};
    for (std::uint64_t rec; (rec = pd.durable_log(wb, pmem::kPathTl2)) != 0; ++appended) {
      pd.durable_mark(rec);
    }
  }).join();
  CHECK(pd.log_overflowed());
  CHECK_EQ(appended, std::size_t{16});  // 6 words each in chunk 1's 99
  const std::size_t committed = pd.recover_log().size();
  CHECK_EQ(committed, std::size_t{1} + appended);

  const std::uint64_t pwb = pd.fence_counts().pwb;
  CHECK_EQ(pd.durable_log(wa, pmem::kPathTl2), std::uint64_t{0});  // chunk 0 has room
  pd.durable_mark(1);
  CHECK_EQ(pd.fence_counts().pwb, pwb);
  std::size_t discarded = 0;
  CHECK_EQ(pd.recover_log(&discarded).size(), committed);
  CHECK_EQ(discarded, std::size_t{0});
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
void test_log_words_per_commit() { log_words_equal_fence_tally(); }
void test_long_log_recovery() { long_log_recovers_marked_in_marker_order(); }
void test_concurrent_appends() { concurrent_appends_keep_seqs_dense(); }
void test_populated_log_sim() { populated_log_tracks_written<HtmSim>(); }
void test_spanning_record() { record_spanning_chunks_round_trips(); }
void test_small_log_overflow_sim() { small_log_fills_then_overflows<HtmSim>(); }
void test_overflow_every_lane() { overflow_stops_every_lane(); }

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
      {"log_words_per_commit_equal_fence_tally", rhtm::test_log_words_per_commit},
      {"long_log_recovery_marker_order", rhtm::test_long_log_recovery},
      {"concurrent_appends_keep_seqs_dense", rhtm::test_concurrent_appends},
      {"populated_log_tracks_written_sim", rhtm::test_populated_log_sim},
      {"record_spanning_chunks_round_trips", rhtm::test_spanning_record},
      {"small_log_fills_then_overflows_sticky_sim", rhtm::test_small_log_overflow_sim},
      {"overflow_stops_every_lane", rhtm::test_overflow_every_lane},
      {"fence_placement_rtm_when_viable", rhtm::test_fence_placement_rtm_when_viable},
  });
}
