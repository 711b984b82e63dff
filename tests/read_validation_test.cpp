// Read-set validation: direct unit checks against a stripe table, plus the
// TL2 invariant under a live concurrent writer — a reader transaction must
// never observe a torn x+y snapshot.

#include <atomic>
#include <set>
#include <thread>

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

/// TL2 over the simulated substrate: a writer keeps moving value between two
/// cells keeping x + y == 100; readers must always see the invariant.
void snapshot_invariant_under_concurrent_writer() {
  TmUniverse<HtmSim> u;
  Tl2<HtmSim> tm(u);
  TVar<TmWord> x(70);
  TVar<TmWord> y(30);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    Xoshiro256 rng(42);
    while (!stop.load(std::memory_order_acquire)) {
      const TmWord delta = rng.below(10);
      tm.atomically(ctx, [&](auto& tx) {
        const TmWord xv = x.read(tx);
        const TmWord yv = y.read(tx);
        if (xv >= delta) {
          x.write(tx, xv - delta);
          y.write(tx, yv + delta);
        }
      });
    }
  });

  {
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    for (int i = 0; i < 20000; ++i) {
      TmWord sum = 0;
      tm.atomically(ctx, [&](auto& tx) { sum = x.read(tx) + y.read(tx); });
      if (sum != 100) torn.store(true);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK(!torn.load());
  CHECK_EQ(x.unsafe_read() + y.unsafe_read(), 100u);
}

/// The emulated substrate's hardware commits are plain accesses, so two
/// racing ones can leave the GV1 clock below a stripe stamp one of them
/// wrote. Once the writers stop, a software transaction must still get
/// past that stamp: each validation abort advances the clock by one.
/// Without that rule this transaction retried forever.
void emul_software_retry_catches_the_clock_up() {
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
  CHECK_EQ(ctx.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kStmValidation)], 3u);
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
      TestCase{"snapshot_invariant_under_concurrent_writer",
               rhtm::snapshot_invariant_under_concurrent_writer},
      TestCase{"emul_software_retry_catches_the_clock_up",
               rhtm::emul_software_retry_catches_the_clock_up},
  });
}
