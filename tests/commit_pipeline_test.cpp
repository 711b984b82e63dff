// The deduped commit pipeline, end to end:
//  * a huge-write-set TL2 commit completes in sorted-deduped time (the old
//    per-entry is_self linear scan was O(W^2) and made this size hang for
//    seconds — this is the canary that reverting the dedup trips);
//  * the RH1 reduced commit's hardware footprint follows the DISTINCT
//    stripe count, not the raw read count: zipfian re-reads of a hot set
//    stay on the RH1-slow tier instead of spuriously escalating to RH2;
//  * the RH2 slow-slow commit honors its own published read masks through
//    the O(1) self-mask view and leaves no mask behind.

#include <vector>

#include "core/rhtm.h"
#include "workloads/driver.h"
#include "test_common.h"

namespace rhtm {
namespace {

std::uint64_t commits_on(const TxStats& s, ExecPath p) {
  return s.commits_by_path[static_cast<std::size_t>(p)];
}

/// Every test below runs twice: numa=off (flat stripe table, the historical
/// layout) and numa=shard (per-socket shards behind the same façade). The
/// pipeline observables — commit path, footprint, mask hygiene — must be
/// identical, because sharding only relocates storage; it never changes a
/// lock or validation decision.
UniverseConfig with_numa(UniverseConfig ucfg, NumaMode mode) {
  static const Topology topo = Topology::fake({{0, 1, 2, 3}, {4, 5, 6, 7}});
  ucfg.numa = mode;
  ucfg.topology = &topo;
  return ucfg;
}

/// One TL2 transaction reading 20k cells and writing 40k more. Under the
/// old per-entry `is_self` linear scan this commit was O(W x locked) ~ 1e9
/// stripe compares (seconds of wall clock); deduped + sorted it is O(W log
/// W). The suite-level observable is this test finishing instantly.
void large_write_set_tl2_commit(NumaMode numa) {
  constexpr std::size_t kReads = 20000;
  constexpr std::size_t kWrites = 40000;
  UniverseConfig ucfg;
  ucfg.stripe.granularity_log2 = 3;  // 1 word per stripe: maximal lock count
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  Tl2<HtmSim> tm(u);
  Tl2<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> reads(kReads);
  std::vector<TVar<TmWord>> writes(kWrites);
  for (std::size_t i = 0; i < kReads; ++i) reads[i].unsafe_write(i);

  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (std::size_t i = 0; i < kReads; ++i) sum += reads[i].read(tx);
    for (std::size_t i = 0; i < kWrites; ++i) writes[i].write(tx, sum + i);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  const TmWord expect_base = kReads * (kReads - 1) / 2;
  CHECK_EQ(writes[0].unsafe_read(), expect_base);
  CHECK_EQ(writes[kWrites - 1].unsafe_read(), expect_base + kWrites - 1);
  // Every lock released back to an unlocked word.
  for (std::size_t s = 0; s < u.stripes().count(); ++s) {
    CHECK(!StripeTable::is_locked(u.stripes().word(s).unsafe_load()));
  }
}

/// Zipfian-style re-reads: the body reads 8 hot cells 300 times each, so
/// the raw read count (2400) dwarfs the distinct stripe count (<= 8). The
/// reduced commit must fit the 64-entry hardware budget — under the old
/// duplicate-logging ReadSet it overflowed and escalated to RH2.
void reduced_commit_footprint_is_distinct_stripes(NumaMode numa) {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  TmUniverse<HtmEmul> u(with_numa(ucfg, numa));
  HybridTm<HtmEmul>::Config cfg;
  cfg.force_slow_path = true;  // software body + reduced hardware commit
  HybridTm<HtmEmul> tm(u, cfg);
  HybridTm<HtmEmul>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> data(4096);
  const TxStats delta =
      run_capacity_pressure(tm, ctx, 20, [&](auto& m, auto& c, Xoshiro256&, unsigned) {
        m.atomically(c, [&](auto& tx) {
          TmWord sum = 0;
          for (int round = 0; round < 300; ++round) {
            for (std::size_t i = 0; i < 8; ++i) sum += data[i * 512].read(tx);
          }
          for (std::size_t i = 0; i < 4; ++i) data[1 + i * 512].write(tx, sum);
        });
      });
  CHECK_EQ(delta.commits, 20u);
  CHECK_EQ(commits_on(delta, ExecPath::kRh1Slow), 20u);  // never escalated
  CHECK_EQ(delta.aborts_by_cause[static_cast<std::size_t>(AbortCause::kHtmCapacity)], 0u);
}

/// Same shape under the simulator's real distinct-line accounting: the
/// transaction commits on the RH1-slow tier and the published values are
/// correct (the reduced commit stamped each unique stripe exactly once).
void reduced_commit_dedup_sim(NumaMode numa) {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  HybridTm<HtmSim>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<HtmSim> tm(u, cfg);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> data(64);
  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (int round = 0; round < 100; ++round) {
      for (std::size_t i = 0; i < 16; ++i) sum += data[i].read(tx);
    }
    for (std::size_t i = 0; i < 16; ++i) data[32 + i].write(tx, sum + i);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh1Slow), 1u);
  for (std::size_t i = 0; i < 16; ++i) CHECK_EQ(data[32 + i].unsafe_read(), i);
}

/// RH2 whose write-set-only hardware commit overflows: the all-software
/// slow-slow commit must admit the transaction's own published read masks
/// (via the O(1) self-mask set), commit, and unpublish every mask.
void rh2_slow_slow_respects_own_masks(NumaMode numa) {
  constexpr std::size_t kCells = 4000;
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  HybridTm<HtmSim>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<HtmSim> tm(u, cfg);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> cells(kCells);
  for (std::size_t i = 0; i < kCells; ++i) cells[i].unsafe_write(i);
  // Read-modify-write of every cell: every written stripe also carries this
  // transaction's own visible-read mask, so a commit that miscounted self
  // masks would deadlock-abort forever.
  tm.atomically(ctx, [&](auto& tx) {
    for (std::size_t i = 0; i < kCells; ++i) cells[i].write(tx, cells[i].read(tx) + 1);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh2SlowSlow), 1u);
  for (std::size_t i = 0; i < kCells; ++i) CHECK_EQ(cells[i].unsafe_read(), i + 1);
  CHECK_EQ(tm.rh2_active(), 0u);
  for (std::size_t s = 0; s < u.stripes().count(); ++s) {
    CHECK_EQ(u.stripes().readers(s), 0u);  // every mask unpublished
    CHECK(!StripeTable::is_locked(u.stripes().word(s).unsafe_load()));
  }
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  using rhtm::NumaMode;
  return rhtm::test::run_tests({
      TestCase{"large_write_set_tl2_commit",
               [] { rhtm::large_write_set_tl2_commit(NumaMode::kOff); }},
      TestCase{"large_write_set_tl2_commit_numa_shard",
               [] { rhtm::large_write_set_tl2_commit(NumaMode::kShard); }},
      TestCase{"reduced_commit_footprint_is_distinct_stripes",
               [] { rhtm::reduced_commit_footprint_is_distinct_stripes(NumaMode::kOff); }},
      TestCase{"reduced_commit_footprint_is_distinct_stripes_numa_shard",
               [] { rhtm::reduced_commit_footprint_is_distinct_stripes(NumaMode::kShard); }},
      TestCase{"reduced_commit_dedup_sim",
               [] { rhtm::reduced_commit_dedup_sim(NumaMode::kOff); }},
      TestCase{"reduced_commit_dedup_sim_numa_shard",
               [] { rhtm::reduced_commit_dedup_sim(NumaMode::kShard); }},
      TestCase{"rh2_slow_slow_respects_own_masks",
               [] { rhtm::rh2_slow_slow_respects_own_masks(NumaMode::kOff); }},
      TestCase{"rh2_slow_slow_respects_own_masks_numa_shard",
               [] { rhtm::rh2_slow_slow_respects_own_masks(NumaMode::kShard); }},
  });
}
