// The RH1 -> RH2 -> slow-slow escalation chain (ablation A3's mechanism):
// on a small hardware budget, growing transaction footprints must fall off
// the fast path, survive on the reduced commit to ~the metadata ratio, then
// land on RH2 / slow-slow — and still commit correctly.
//
// Parametrized over the substrate axis: the tier thresholds are asserted
// exactly on HtmSim (distinct-line accounting) and HtmEmul (access
// counting — ReadSet's consecutive-stripe dedup keeps the linear sweeps in
// the same tiers). On HtmRtm the configured budgets are still enforced by
// the substrate's counters, but real hardware also aborts for reasons of
// its own (interrupts, cache geometry), so the rtm leg asserts the
// one-directional guarantees: over-budget footprints never commit on the
// fast path, and everything still commits. On a host without usable RTM
// every hardware attempt fails, so all commits must land on the
// all-software slow-slow path — the graceful-fallback contract.
//
// HtmEmul runs only the tiers up to RH1-slow: escalation past the reduced
// commit requires an aborted hardware commit to roll back its partial
// stripe stamps, which the emulation cannot do (its aborted stores stick,
// so software validation would never succeed again). That boundary is the
// substrate's documented fidelity limit, not a protocol bug — see the
// substrate-layer section of docs/ARCHITECTURE.md.

#include <vector>

#include "core/rhtm.h"
#include "workloads/driver.h"
#include "test_common.h"

namespace rhtm {
namespace {

std::uint64_t commits_on(const TxStats& s, ExecPath p) {
  return s.commits_by_path[static_cast<std::size_t>(p)];
}

template <class H>
void escalation_chain_impl(bool strict_tiers, bool run_big = true) {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  ucfg.stripe.granularity_log2 = 5;  // 4 words per stripe
  TmUniverse<H> u(ucfg);
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  HybridTm<H> tm(u, cfg);
  typename HybridTm<H>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> data(4096);

  const auto sweep = [&](std::size_t len) {
    return run_capacity_pressure(tm, ctx, 20,
                                 [&](auto& m, auto& c, Xoshiro256&, unsigned) {
                                   m.atomically(c, [&](auto& tx) {
                                     TmWord sum = 0;
                                     for (std::size_t w = 0; w < len; ++w) {
                                       sum += data[w].read(tx);
                                       if (w % 16 == 0) data[w].write(tx, sum);
                                     }
                                   });
                                 });
  };

  // Small footprint: everything commits; on a strict substrate, all fast.
  const TxStats small = sweep(16);
  CHECK_EQ(small.commits, 20u);
  if (strict_tiers) CHECK_EQ(commits_on(small, ExecPath::kRh1Fast), 20u);

  // Past the read budget (64 words): the fast path can never commit. Within
  // the reduced commit's metadata budget (64 stripes = 256 words): RH1 slow
  // on the strict substrates.
  const TxStats mid = sweep(160);
  CHECK_EQ(mid.commits, 20u);
  CHECK_EQ(commits_on(mid, ExecPath::kRh1Fast), 0u);
  if (strict_tiers) CHECK_EQ(commits_on(mid, ExecPath::kRh1Slow), 20u);

  // Past the reduced commit too (> 256 words of read footprint): RH2 or the
  // all-software slow-slow path.
  if (!run_big) return;
  const TxStats big = sweep(1024);
  CHECK_EQ(big.commits, 20u);
  CHECK_EQ(commits_on(big, ExecPath::kRh1Fast), 0u);
  CHECK_EQ(commits_on(big, ExecPath::kRh1Slow), 0u);
  CHECK_EQ(commits_on(big, ExecPath::kRh2Slow) + commits_on(big, ExecPath::kRh2SlowSlow), 20u);
}

void escalation_chain_sim() { escalation_chain_impl<HtmSim>(/*strict_tiers=*/true); }
void escalation_chain_emul() {
  escalation_chain_impl<HtmEmul>(/*strict_tiers=*/true, /*run_big=*/false);
}

void escalation_chain_rtm() {
  std::printf("    rtm: available=%d hardware_viable=%d\n", HtmRtm::available() ? 1 : 0,
              HtmRtm::hardware_viable() ? 1 : 0);
  escalation_chain_impl<HtmRtm>(/*strict_tiers=*/false);
}

/// Without usable RTM hardware every commit must land on the all-software
/// path — and still be correct. (Skipped on hosts where RTM works.)
void rtm_fallback_all_software() {
  if (HtmRtm::hardware_viable()) {
    std::printf("    skipped: this host runs real RTM transactions\n");
    return;
  }
  TmUniverse<HtmRtm> u;
  typename HybridTm<HtmRtm>::Config cfg;
  cfg.slow_retry_percent = 100;
  HybridTm<HtmRtm> tm(u, cfg);
  typename HybridTm<HtmRtm>::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> cells(64);
  const TxStats delta =
      run_capacity_pressure(tm, ctx, 10, [&](auto& m, auto& c, Xoshiro256&, unsigned) {
        m.atomically(c, [&](auto& tx) {
          for (std::size_t i = 0; i < 8; ++i) cells[i].write(tx, cells[i].read(tx) + 1);
        });
      });
  CHECK_EQ(delta.commits, 10u);
  CHECK_EQ(commits_on(delta, ExecPath::kRh2SlowSlow), 10u);
  for (std::size_t i = 0; i < 8; ++i) CHECK_EQ(cells[i].unsafe_read(), 10u);
}

template <class H>
void oversized_transactions_still_commit() {
  TmUniverse<H> u;  // default 512-entry write budget
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  HybridTm<H> tm(u, cfg);
  typename HybridTm<H>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> cells(2048);
  tm.atomically(ctx, [&](auto& tx) {
    for (std::size_t i = 0; i < 700; ++i) cells[i].write(tx, i + 1);  // > write budget
  });
  for (std::size_t i = 0; i < 700; ++i) CHECK_EQ(cells[i].unsafe_read(), i + 1);
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh1Fast), 0u);
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"escalation_chain_sim", rhtm::escalation_chain_sim},
      TestCase{"escalation_chain_emul", rhtm::escalation_chain_emul},
      TestCase{"escalation_chain_rtm", rhtm::escalation_chain_rtm},
      TestCase{"rtm_fallback_all_software", rhtm::rtm_fallback_all_software},
      TestCase{"oversized_still_commit_sim",
               rhtm::oversized_transactions_still_commit<rhtm::HtmSim>},
      TestCase{"oversized_still_commit_emul",
               rhtm::oversized_transactions_still_commit<rhtm::HtmEmul>},
      TestCase{"oversized_still_commit_rtm",
               rhtm::oversized_transactions_still_commit<rhtm::HtmRtm>},
  });
}
