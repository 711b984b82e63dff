// ContentionManager (core/contention.h) unit tests.
//
// The load-bearing one is fixed-policy bit-compatibility: the kFixed policy
// must reproduce the historical RH1 retry decisions EXACTLY, including RNG
// consumption — every pre-existing benchmark series is the baseline the
// adaptive policy is judged against, so the refactor must not perturb it.
// We replay the old decision procedure (capacity threshold, then the
// Mixed-N coin) against the manager with twin-seeded RNGs and require
// identical decisions and identical post-run RNG states.

#include "core/contention.h"
#include "test_common.h"

namespace rhtm {
namespace {

constexpr AbortCause kCauses[] = {AbortCause::kHtmConflict, AbortCause::kHtmCapacity,
                                  AbortCause::kHtmExplicit, AbortCause::kInjected};

/// The pre-ContentionManager RH1 decision procedure, verbatim: per abort,
/// deterministic capacity escalation first, else the Mixed-N coin.
struct OldRh1Decider {
  unsigned slow_retry_percent;
  unsigned capacity_retries;
  unsigned capacity_fails = 0;  // per-transaction

  void start_tx() { capacity_fails = 0; }

  bool go_slow(AbortCause cause, Xoshiro256& rng) {
    if (cause == AbortCause::kHtmCapacity && ++capacity_fails >= capacity_retries) {
      return true;
    }
    return slow_retry_percent > 0 && rng.percent_chance(slow_retry_percent);
  }
};

/// Twin replay: same seed, same synthetic abort stream, decisions AND RNG
/// states must match transaction by transaction.
void fixed_bit_compat_one(unsigned pct, unsigned capacity_retries, std::uint64_t seed) {
  CmConfig cfg;  // policy = kFixed
  ContentionManager cm(cfg, ContentionManager::Limits{pct, 0, capacity_retries});
  OldRh1Decider old{pct, capacity_retries};
  Xoshiro256 rng_new(seed);
  Xoshiro256 rng_old(seed);
  Xoshiro256 stream(seed ^ 0xabcdef);  // drives the synthetic abort causes

  for (int tx = 0; tx < 2000; ++tx) {
    CHECK(!cm.start_in_software());  // fixed never skips hardware
    old.start_tx();
    for (int attempt = 0; attempt < 32; ++attempt) {
      if (stream.percent_chance(40)) {  // this attempt commits
        cm.on_hardware_commit();
        break;
      }
      const AbortCause cause = kCauses[stream.below(4)];
      const bool d_new = cm.give_up_hardware(cause, rng_new);
      const bool d_old = old.go_slow(cause, rng_old);
      CHECK_EQ(d_new, d_old);
      if (d_new != d_old) return;  // stop before the streams diverge further
      if (d_new) break;            // escalated to software
    }
  }
  // Identical RNG consumption throughout => identical next draws.
  CHECK_EQ(rng_new.next_u64(), rng_old.next_u64());
}

void fixed_bit_compat() {
  for (const unsigned pct : {0u, 10u, 100u}) {
    for (const unsigned cap : {1u, 2u, 3u}) {
      fixed_bit_compat_one(pct, cap, 0x1234u + pct * 131 + cap);
    }
  }
}

/// The fixed attempt budget (StandardHytm / HybridNorec semantics): give up
/// after exactly max_hw_attempts aborts, coin untouched (percent = 0 there).
void fixed_attempt_budget() {
  ContentionManager cm(CmConfig{}, ContentionManager::Limits{0, 3, 100});
  Xoshiro256 rng(7);
  const std::uint64_t before = [&] { Xoshiro256 copy = rng; return copy.next_u64(); }();
  CHECK(!cm.start_in_software());
  CHECK(!cm.give_up_hardware(AbortCause::kHtmConflict, rng));
  CHECK(!cm.give_up_hardware(AbortCause::kHtmConflict, rng));
  CHECK(cm.give_up_hardware(AbortCause::kHtmConflict, rng));  // attempt 3 of 3
  CHECK_EQ(rng.next_u64(), before);  // no coin drawn with percent == 0
}

/// Capacity escalation is deterministic under EVERY policy.
void capacity_escalation_all_policies() {
  for (const CmPolicy policy : {CmPolicy::kFixed, CmPolicy::kAdaptive}) {
    CmConfig cfg;
    cfg.policy = policy;
    ContentionManager cm(cfg, ContentionManager::Limits{0, 0, 2});
    Xoshiro256 rng(11);
    CHECK(!cm.start_in_software());
    CHECK(!cm.give_up_hardware(AbortCause::kHtmCapacity, rng));
    CHECK(cm.give_up_hardware(AbortCause::kHtmCapacity, rng));  // 2nd of 2
  }
}

/// hw_threshold() is monotonically non-increasing as abort density rises,
/// non-decreasing as it decays, and always within
/// [kAdaptMinAttempts, kAdaptMaxAttempts].
void threshold_monotonicity() {
  CmConfig cfg;
  cfg.policy = CmPolicy::kAdaptive;
  ContentionManager cm(cfg, ContentionManager::Limits{});
  Xoshiro256 rng(3);
  constexpr unsigned kMin = ContentionManager::kAdaptMinAttempts;
  constexpr unsigned kMax = ContentionManager::kAdaptMaxAttempts;
  CHECK_EQ(cm.hw_threshold(), kMax);  // quiet start
  unsigned prev = cm.hw_threshold();
  for (int i = 0; i < 64; ++i) {
    (void)cm.start_in_software();
    (void)cm.give_up_hardware(AbortCause::kHtmConflict, rng);
    const unsigned t = cm.hw_threshold();
    CHECK(t <= prev);
    CHECK(t >= kMin && t <= kMax);
    prev = t;
  }
  CHECK_EQ(prev, kMin);  // saturated contention
  for (int i = 0; i < 256; ++i) {
    cm.on_hardware_commit();
    const unsigned t = cm.hw_threshold();
    CHECK(t >= prev);
    CHECK(t >= kMin && t <= kMax);
    prev = t;
  }
  CHECK_EQ(prev, kMax);  // fully decayed
}

/// Same seed + same call sequence -> identical decisions and state.
void seeded_determinism() {
  CmConfig cfg;
  cfg.policy = CmPolicy::kAdaptive;
  ContentionManager a(cfg, ContentionManager::Limits{});
  ContentionManager b(cfg, ContentionManager::Limits{});
  Xoshiro256 rng_a(99);
  Xoshiro256 rng_b(99);
  Xoshiro256 stream(42);
  for (int i = 0; i < 4000; ++i) {
    const bool sw_a = a.start_in_software();
    const bool sw_b = b.start_in_software();
    CHECK_EQ(sw_a, sw_b);
    if (sw_a) continue;
    const AbortCause cause = kCauses[stream.below(4)];
    if (stream.percent_chance(30)) {
      a.on_hardware_commit();
      b.on_hardware_commit();
    } else {
      CHECK_EQ(a.give_up_hardware(cause, rng_a), b.give_up_hardware(cause, rng_b));
    }
    CHECK_EQ(a.abort_ewma_bp(), b.abort_ewma_bp());
    CHECK_EQ(a.failure_streak(), b.failure_streak());
    CHECK_EQ(a.hw_threshold(), b.hw_threshold());
  }
  CHECK_EQ(rng_a.next_u64(), rng_b.next_u64());
}

/// Hammering one manager must not move another's state (all state is
/// per-instance; the protocols hold one per ThreadCtx).
void per_thread_independence() {
  CmConfig cfg;
  cfg.policy = CmPolicy::kAdaptive;
  ContentionManager hot(cfg, ContentionManager::Limits{});
  ContentionManager idle(cfg, ContentionManager::Limits{});
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    (void)hot.start_in_software();
    (void)hot.give_up_hardware(AbortCause::kHtmConflict, rng);
  }
  CHECK(hot.abort_ewma_bp() > 0);
  CHECK_EQ(idle.abort_ewma_bp(), 0u);
  CHECK_EQ(idle.failure_streak(), 0u);
  CHECK(!idle.start_in_software());
}

/// Adaptive software mode: kSwStreak consecutive failures send transactions
/// straight to software; every kProbePeriod-th transaction re-probes
/// hardware; a hardware commit (and only a hardware commit) ends the mode.
void adaptive_software_mode() {
  CmConfig cfg;
  cfg.policy = CmPolicy::kAdaptive;
  ContentionManager cm(cfg, ContentionManager::Limits{});
  Xoshiro256 rng(17);
  while (cm.failure_streak() < ContentionManager::kSwStreak) {
    CHECK(!cm.start_in_software());
    (void)cm.give_up_hardware(AbortCause::kHtmConflict, rng);
  }
  constexpr unsigned kTxs = 2 * ContentionManager::kProbePeriod;
  unsigned software = 0;
  unsigned probes = 0;
  for (unsigned tx = 0; tx < kTxs; ++tx) {
    if (cm.start_in_software()) {
      ++software;
      cm.on_software_commit();  // software success does NOT break the streak
    } else {
      ++probes;
      (void)cm.give_up_hardware(AbortCause::kHtmConflict, rng);  // probe fails
    }
  }
  CHECK_EQ(probes, 2u);      // two probe periods, one probe each
  CHECK_EQ(software, kTxs - 2);
  cm.on_hardware_commit();   // a probe finally commits in hardware
  CHECK_EQ(cm.failure_streak(), 0u);
  CHECK(!cm.start_in_software());
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"fixed_bit_compat", rhtm::fixed_bit_compat},
      TestCase{"fixed_attempt_budget", rhtm::fixed_attempt_budget},
      TestCase{"capacity_escalation_all_policies", rhtm::capacity_escalation_all_policies},
      TestCase{"threshold_monotonicity", rhtm::threshold_monotonicity},
      TestCase{"seeded_determinism", rhtm::seeded_determinism},
      TestCase{"per_thread_independence", rhtm::per_thread_independence},
      TestCase{"adaptive_software_mode", rhtm::adaptive_software_mode},
  });
}
