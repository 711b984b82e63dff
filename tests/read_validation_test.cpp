// Read-set validation: direct unit checks against a stripe table, the TL2
// invariant under live concurrent writers — a reader transaction must never
// observe a torn x+y snapshot — the sim's publication epoch under both kinds
// of multi-word publication, and the default clock's read-version
// extension.

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/rhtm.h"
#include "stm/read_set.h"
#include "test_common.h"

namespace rhtm {
namespace {

void validate_detects_version_bump() {
  StripeTable st;
  ReadSet rs;
  rs.add(5);
  rs.add(9);
  CHECK(rs.validate(st, /*rv=*/0));
  st.unlock_to(9, 3);  // stripe 9 now at version 3
  CHECK(!rs.validate(st, /*rv=*/0));  // newer than rv: stale read set
  CHECK(rs.validate(st, /*rv=*/3));   // admitted once rv catches up
}

void validate_detects_foreign_lock() {
  StripeTable st;
  ReadSet rs;
  rs.add(4);
  CHECK(st.try_lock(4));
  CHECK(!rs.validate(st, /*rv=*/10));  // locked by someone else
  CHECK(rs.validate(st, /*rv=*/10, [](std::uint32_t s) { return s == 4; }));  // self-lock ok
  st.unlock_restore(4);
  CHECK(rs.validate(st, /*rv=*/10));
}

void consecutive_dedup() {
  ReadSet rs;
  rs.add(3);
  rs.add(3);
  rs.add(3);
  rs.add(4);
  CHECK_EQ(rs.size(), 2u);
}

/// Zipfian-style re-reads: interleaved (NON-consecutive) repeats of a hot
/// stripe pool must still be logged exactly once each, so commit-time
/// validation — and the RH1 reduced commit built on stripes() — visits
/// each stripe once. The old consecutive-only dedup logged ~10k entries
/// here and inflated the reduced commit's hardware footprint accordingly.
void zipfian_rereads_exact_dedup() {
  constexpr std::uint32_t kHotStripes = 64;
  ReadSet rs;
  Xoshiro256 rng(1234);
  for (std::uint32_t s = 0; s < kHotStripes; ++s) rs.add(s);  // all distinct once
  for (int i = 0; i < 10000; ++i) {
    rs.add(static_cast<std::uint32_t>(rng.below(kHotStripes)));
  }
  CHECK_EQ(rs.size(), kHotStripes);
  std::set<std::uint32_t> seen;
  for (const std::uint32_t s : rs.stripes()) {
    CHECK(seen.insert(s).second);  // each stripe exactly once
  }
  CHECK_EQ(seen.size(), kHotStripes);
  // Validation over the deduped set behaves like before.
  StripeTable st;
  CHECK(rs.validate(st, /*rv=*/0));
  st.unlock_to(5, 9);
  CHECK(!rs.validate(st, /*rv=*/0));
  // clear() resets the dedup filter too: stripes are loggable again.
  rs.clear();
  rs.add(5);
  CHECK_EQ(rs.size(), 1u);
  CHECK_EQ(rs.stripes()[0], 5u);
}

/// A TL2 transfer writer and an RH1 writer on sim (hardware fast-path
/// commits, which stamp at clock+1 without storing the clock) keep moving
/// value between two cells keeping x + y == 100. Readers on the default
/// clock extend their read version past those stamps instead of aborting,
/// and must always see the invariant.
void snapshot_invariant_under_concurrent_writer() {
  TmUniverse<HtmSim> u;
  CHECK(!u.clock().hw_writes_clock());
  Tl2<HtmSim> tm(u);
  HybridTm<HtmSim> rh1(u);
  TVar<TmWord> x(70);
  TVar<TmWord> y(30);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> rh1_txs{0};
  std::atomic<std::uint64_t> fast_commits{0};
  const auto transfer = [&](auto& tx, TmWord delta) {
    const TmWord xv = x.read(tx);
    const TmWord yv = y.read(tx);
    if (xv >= delta) {
      x.write(tx, xv - delta);
      y.write(tx, yv + delta);
    } else {  // x is nearly drained, so y > 90 > delta: move value back
      x.write(tx, xv + delta);
      y.write(tx, yv - delta);
    }
  };

  std::thread tl2_writer([&] {
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    Xoshiro256 rng(42);
    while (!stop.load(std::memory_order_acquire)) {
      const TmWord delta = rng.below(10);
      tm.atomically(ctx, [&](auto& tx) { transfer(tx, delta); });
    }
  });
  std::thread rh1_writer([&] {
    HybridTm<HtmSim>::ThreadCtx ctx(rh1);
    Xoshiro256 rng(43);
    while (!stop.load(std::memory_order_acquire)) {
      const TmWord delta = rng.below(10);
      rh1.atomically(ctx, [&](auto& tx) { transfer(tx, delta); });
      rh1_txs.fetch_add(1, std::memory_order_relaxed);
    }
    fast_commits = ctx.stats.commits_by_path[static_cast<std::size_t>(ExecPath::kRh1Fast)];
  });

  {
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    // Read until the RH1 writer has been running for a while too: a
    // thread can start late on a loaded host.
    for (int i = 0; i < 20000 || rh1_txs.load(std::memory_order_relaxed) < 500; ++i) {
      TmWord sum = 0;
      tm.atomically(ctx, [&](auto& tx) { sum = x.read(tx) + y.read(tx); });
      if (sum != 100) torn.store(true);
    }
  }
  stop.store(true, std::memory_order_release);
  tl2_writer.join();
  rh1_writer.join();
  CHECK(!torn.load());
  CHECK(fast_commits.load() > 0);
  CHECK_EQ(x.unsafe_read() + y.unsafe_read(), 100u);
}

/// HtmSim's two publication kinds — a hardware commit's write-back and a
/// nontx_publish batch — alternate, each storing one new value into two
/// cells. A reader that brackets its two loads with publication_epoch()
/// may accept only an even, unchanged epoch, and then must see the cells
/// equal: the odd mark has to reach a reader that sees any of the stores.
void publication_epoch_brackets_every_publication() {
  HtmSim htm;
  TmCell a;
  TmCell b;
  std::atomic<bool> stop{false};
  std::atomic<TmWord> published{0};
  std::thread writer([&] {
    struct Ent {
      TmCell* cell;
      TmWord value;
    };
    HtmSim::Tx tx(htm);
    for (TmWord v = 1; !stop.load(std::memory_order_acquire); ++v) {
      if (v % 2 == 0) {
        const Ent batch[] = {{&a, v}, {&b, v}};
        htm.nontx_publish(batch);
      } else {
        const HtmOutcome out = htm.execute(tx, [&](HtmSim::Tx& t) {
          t.store(a, v);
          t.store(b, v);
        });
        CHECK(out.ok());
      }
      published.store(v, std::memory_order_relaxed);
    }
  });

  std::uint64_t accepted = 0;
  bool torn = false;
  // Read until both kinds have been published many times: a thread can
  // start late on a loaded host.
  for (int i = 0; i < 1000000 || published.load(std::memory_order_relaxed) < 100000; ++i) {
    const TmWord e1 = htm.publication_epoch();
    const TmWord va = htm.nontx_load(a);
    const TmWord vb = htm.nontx_load(b);
    const TmWord e2 = htm.publication_epoch();
    if ((e1 & 1) != 0 || e1 != e2) continue;
    ++accepted;
    if (va != vb) torn = true;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK(!torn);
  CHECK(accepted > 0);
  CHECK_EQ(htm.publication_epoch() % 2, 0u);
}

/// The emulated substrate's hardware commits are plain accesses, so two
/// racing ones can leave the GV1 clock below a stripe stamp one of them
/// wrote. Once the writers stop, a software transaction must still get
/// past that stamp: each validation abort advances the clock by one.
/// Without that rule this transaction retried forever.
void emul_software_retry_catches_the_clock_up() {
  UniverseConfig ucfg;
  ucfg.gv_mode = GvMode::kGv1;
  TmUniverse<HtmEmul> u(ucfg);
  TVar<TmWord> cell(7);
  u.stripes().unlock_to(u.stripes().index_of(&cell.cell()), u.clock().read() + 3);
  HybridTm<HtmEmul>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<HtmEmul> tm(u, cfg);
  HybridTm<HtmEmul>::ThreadCtx ctx(tm);
  tm.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
  CHECK_EQ(cell.unsafe_read(), 8u);
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(ctx.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kStmValidation)], 3u);
}

/// The same stranded stamp on the default clock: the read lifts the clock
/// to the stamp and extends its read version, so the transaction commits
/// at its first attempt.
void emul_default_clock_read_extends_past_the_stamp() {
  TmUniverse<HtmEmul> u;
  TVar<TmWord> cell(7);
  u.stripes().unlock_to(u.stripes().index_of(&cell.cell()), u.clock().read() + 3);
  HybridTm<HtmEmul>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<HtmEmul> tm(u, cfg);
  HybridTm<HtmEmul>::ThreadCtx ctx(tm);
  tm.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
  CHECK_EQ(cell.unsafe_read(), 8u);
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(ctx.stats.aborts, 0u);
  CHECK_EQ(u.clock().read(), 3u);
  CHECK_EQ(u.clock().global_publishes(), 1u);  // the one lift
}

/// One thread, default clock: each commit stamps at clock+1 without
/// storing the clock, so every following transaction meets a stamp newer
/// than its read version — on a read, and on the blind write to `last`
/// (the RH2 commit checks write stripes too). Extension admits them all:
/// 100 write commits, no aborts. The bare GV6 rule, which aborts on such a
/// stamp, took 62 aborts in 100.
template <class Tm>
void hundred_write_commits_without_aborts(TmUniverse<HtmSim>& u, Tm& tm) {
  struct alignas(64) Padded {
    TmCell c;
  };
  std::vector<Padded> cells(8);
  Padded last;
  typename Tm::ThreadCtx ctx(tm);
  for (int i = 0; i < 100; ++i) {
    tm.atomically(ctx, [&](auto& tx) {
      TmCell& c = cells[static_cast<std::size_t>(i) % cells.size()].c;
      tx.store(c, tx.load(c) + 1);
      tx.store(last.c, static_cast<TmWord>(i));
    });
  }
  CHECK_EQ(ctx.stats.commits, 100u);
  CHECK_EQ(ctx.stats.aborts, 0u);
  TmWord sum = 0;
  for (const Padded& p : cells) sum += p.c.unsafe_load();
  CHECK_EQ(sum, 100u);
  CHECK_EQ(last.c.unsafe_load(), 99u);
  CHECK(u.clock().read() <= 100u);
}

void default_clock_single_thread_no_aborts() {
  CHECK(UniverseConfig{}.gv_mode == GvMode::kGv6);
  {
    TmUniverse<HtmSim> u;
    Tl2<HtmSim> tm(u);
    hundred_write_commits_without_aborts(u, tm);
  }
  for (const bool rh2 : {false, true}) {
    TmUniverse<HtmSim> u;
    HybridTm<HtmSim>::Config cfg;
    cfg.force_slow_path = !rh2;
    cfg.force_rh2 = rh2;
    HybridTm<HtmSim> tm(u, cfg);
    hundred_write_commits_without_aborts(u, tm);
  }
}

/// Extension must not admit a torn snapshot: a reader reads x, a hardware
/// commit then writes x and y, and the reader finds y newer than its read
/// version. Revalidating x against the old read version fails, so the
/// attempt aborts with kStmValidation; the retry sees both new values.
void extension_rejects_a_commit_between_reads() {
  TmUniverse<HtmSim> u;
  alignas(64) TVar<TmWord> x(70);
  alignas(64) TVar<TmWord> y(30);
  CHECK(u.stripes().index_of(&x.cell()) != u.stripes().index_of(&y.cell()));
  Tl2<HtmSim> tl2(u);
  HybridTm<HtmSim> rh1(u);
  std::atomic<int> phase{0};  // 1: reader has read x; 2: writer committed
  std::atomic<std::uint64_t> fast_commits{0};
  std::thread writer([&] {
    HybridTm<HtmSim>::ThreadCtx ctx(rh1);
    while (phase.load(std::memory_order_acquire) != 1) std::this_thread::yield();
    rh1.atomically(ctx, [&](auto& tx) {
      x.write(tx, x.read(tx) + 5);
      y.write(tx, y.read(tx) - 5);
    });
    fast_commits = ctx.stats.commits_by_path[static_cast<std::size_t>(ExecPath::kRh1Fast)];
    phase.store(2, std::memory_order_release);
  });
  Tl2<HtmSim>::ThreadCtx ctx(tl2);
  std::vector<std::pair<TmWord, TmWord>> seen;
  tl2.atomically(ctx, [&](auto& tx) {
    const TmWord xv = x.read(tx);
    if (phase.load(std::memory_order_acquire) == 0) {
      phase.store(1, std::memory_order_release);
      while (phase.load(std::memory_order_acquire) != 2) std::this_thread::yield();
    }
    seen.emplace_back(xv, y.read(tx));
  });
  writer.join();
  CHECK_EQ(fast_commits.load(), 1u);
  CHECK_EQ(seen.size(), 1u);  // the first attempt never completed its reads
  CHECK(seen.back() == std::make_pair(TmWord{75}, TmWord{25}));
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(ctx.stats.aborts, 1u);
  CHECK_EQ(ctx.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kStmValidation)], 1u);
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"validate_detects_version_bump", rhtm::validate_detects_version_bump},
      TestCase{"validate_detects_foreign_lock", rhtm::validate_detects_foreign_lock},
      TestCase{"consecutive_dedup", rhtm::consecutive_dedup},
      TestCase{"zipfian_rereads_exact_dedup", rhtm::zipfian_rereads_exact_dedup},
      TestCase{"publication_epoch_brackets_every_publication",
               rhtm::publication_epoch_brackets_every_publication},
      TestCase{"snapshot_invariant_under_concurrent_writer",
               rhtm::snapshot_invariant_under_concurrent_writer},
      TestCase{"emul_software_retry_catches_the_clock_up",
               rhtm::emul_software_retry_catches_the_clock_up},
      TestCase{"emul_default_clock_read_extends_past_the_stamp",
               rhtm::emul_default_clock_read_extends_past_the_stamp},
      TestCase{"default_clock_single_thread_no_aborts",
               rhtm::default_clock_single_thread_no_aborts},
      TestCase{"extension_rejects_a_commit_between_reads",
               rhtm::extension_rejects_a_commit_between_reads},
  });
}
