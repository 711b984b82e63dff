// Cross-protocol serializability smoke tests, parametrized over the
// substrates that guarantee atomic commits: concurrent bank transfers must
// conserve the total, and concurrent readers must never observe a torn
// snapshot — for every protocol the benches run.
//
// Substrate coverage: the full suite runs on HtmSim (software-validated
// commits) and on HtmRtm (real hardware transactions when the host has
// usable TSX; the software fallback paths otherwise — the invariants must
// hold either way). HtmEmul is deliberately excluded: it has no conflict
// detection or rollback (SubstrateTraits<HtmEmul>::kAtomic is false), so
// concurrent executions on it are a modelling device, not serializable
// histories; its whole-stack coverage lives in substrate_conformance_test.

#include <atomic>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

constexpr std::size_t kAccounts = 64;
constexpr TmWord kInitialEach = 100;
constexpr TmWord kTotal = kAccounts * kInitialEach;

template <class Tm>
void bank_test(Tm& tm, unsigned writers) {
  std::vector<TVar<TmWord>> accounts(kAccounts);
  for (auto& a : accounts) a.unsafe_write(kInitialEach);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      typename Tm::ThreadCtx ctx(tm);
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < 4000; ++i) {
        const std::size_t from = rng.below(kAccounts);
        const std::size_t to = rng.below(kAccounts);
        const TmWord amount = rng.below(5);
        tm.atomically(ctx, [&](auto& tx) {
          const TmWord f = accounts[from].read(tx);
          if (f >= amount) {
            accounts[from].write(tx, f - amount);
            accounts[to].write(tx, accounts[to].read(tx) + amount);
          }
        });
      }
    });
  }
  // A reader thread summing all accounts transactionally.
  threads.emplace_back([&] {
    typename Tm::ThreadCtx ctx(tm);
    while (!stop.load(std::memory_order_acquire)) {
      TmWord sum = 0;
      tm.atomically(ctx, [&](auto& tx) {
        TmWord s = 0;
        for (const auto& a : accounts) s += a.read(tx);
        sum = s;
      });
      if (sum != kTotal) torn.store(true);
    }
  });
  for (unsigned t = 0; t < writers; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  CHECK(!torn.load());
  TmWord final_total = 0;
  for (const auto& a : accounts) final_total += a.unsafe_read();
  CHECK_EQ(final_total, kTotal);
}

template <class H>
void tl2_bank() {
  TmUniverse<H> u;
  Tl2<H> tm(u);
  bank_test(tm, 4);
}

template <class H>
void htm_only_bank() {
  TmUniverse<H> u;
  HtmOnly<H> tm(u);
  bank_test(tm, 4);
}

template <class H>
void standard_hytm_bank() {
  TmUniverse<H> u;
  StandardHytm<H> tm(u);  // with software fallback enabled
  bank_test(tm, 4);
}

template <class H>
void rh1_fast_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 0;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_mixed_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;  // force plenty of slow-path traffic
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_forced_slow_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh2_forced_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_adaptive_bank() {
  UniverseConfig ucfg;
  ucfg.cm.policy = CmPolicy::kAdaptive;
  TmUniverse<H> u(ucfg);
  typename HybridTm<H>::Config cfg;
  cfg.inject_abort_bp = 5000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void hybrid_norec_bank() {
  TmUniverse<H> u;
  typename HybridNorec<H>::Config cfg;
  cfg.inject_abort_bp = 2000;  // push traffic onto the software path too
  HybridNorec<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void phased_bank() {
  TmUniverse<H> u;
  typename PhasedTm<H>::Config cfg;
  cfg.inject_abort_bp = 2000;  // force phase transitions
  PhasedTm<H> tm(u, cfg);
  bank_test(tm, 4);
  CHECK_EQ(tm.software_pending(), 0u);  // phases drained
}

/// Every other case runs the default clock (GV6 with read-version
/// extension); these pin each clock rule explicitly, GV1 included — the
/// former default, where every hardware commit stores the clock.
template <class H, GvMode kClock>
void clock_mixed_bank() {
  UniverseConfig ucfg;
  ucfg.gv_mode = kClock;
  TmUniverse<H> u(ucfg);
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

/// The rtm leg announces whether it exercised real hardware transactions or
/// the graceful software fallback — both must satisfy the invariants.
void rtm_banner() {
  std::printf("    rtm substrate: available=%d hardware_viable=%d (%s)\n",
              HtmRtm::available() ? 1 : 0, HtmRtm::hardware_viable() ? 1 : 0,
              HtmRtm::hardware_viable() ? "real hardware transactions"
                                        : "software fallback paths");
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::HtmRtm;
  using rhtm::HtmSim;
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"tl2_bank", rhtm::tl2_bank<HtmSim>},
      TestCase{"htm_only_bank", rhtm::htm_only_bank<HtmSim>},
      TestCase{"standard_hytm_bank", rhtm::standard_hytm_bank<HtmSim>},
      TestCase{"rh1_fast_bank", rhtm::rh1_fast_bank<HtmSim>},
      TestCase{"rh1_mixed_bank", rhtm::rh1_mixed_bank<HtmSim>},
      TestCase{"rh1_forced_slow_bank", rhtm::rh1_forced_slow_bank<HtmSim>},
      TestCase{"rh2_forced_bank", rhtm::rh2_forced_bank<HtmSim>},
      TestCase{"rh1_adaptive_bank", rhtm::rh1_adaptive_bank<HtmSim>},
      TestCase{"hybrid_norec_bank", rhtm::hybrid_norec_bank<HtmSim>},
      TestCase{"phased_bank", rhtm::phased_bank<HtmSim>},
      TestCase{"gv6_mixed_bank", rhtm::clock_mixed_bank<HtmSim, rhtm::GvMode::kGv6>},
      TestCase{"gv1_mixed_bank", rhtm::clock_mixed_bank<HtmSim, rhtm::GvMode::kGv1>},
      TestCase{"rtm_banner", rhtm::rtm_banner},
      TestCase{"rtm_tl2_bank", rhtm::tl2_bank<HtmRtm>},
      TestCase{"rtm_htm_only_bank", rhtm::htm_only_bank<HtmRtm>},
      TestCase{"rtm_standard_hytm_bank", rhtm::standard_hytm_bank<HtmRtm>},
      TestCase{"rtm_rh1_fast_bank", rhtm::rh1_fast_bank<HtmRtm>},
      TestCase{"rtm_rh1_mixed_bank", rhtm::rh1_mixed_bank<HtmRtm>},
      TestCase{"rtm_rh2_forced_bank", rhtm::rh2_forced_bank<HtmRtm>},
      TestCase{"rtm_hybrid_norec_bank", rhtm::hybrid_norec_bank<HtmRtm>},
      TestCase{"rtm_phased_bank", rhtm::phased_bank<HtmRtm>},
      TestCase{"rtm_gv1_mixed_bank", rhtm::clock_mixed_bank<HtmRtm, rhtm::GvMode::kGv1>},
  });
}
