#pragma once

// Contention management: the per-thread policy engine that decides, per
// transaction attempt, (a) whether to speculate in hardware at all,
// (b) when to give up on hardware and escalate to the software path, and
// (c) what shape of backoff to apply between retries.
//
// Before this layer existed, every protocol burned retries through one
// fixed bounded-exponential backoff and two fixed knobs (a Mixed-N
// percentage coin and a capacity-retry count). Alistarh et al. ("Inherent
// Limitations of Hybrid Transactional Memory") argue that *when a hybrid
// gives up on hardware* dominates its progressiveness, and Brown & Ravi
// ("On the Cost of Concurrency in Hybrid TM") quantify why a wrong
// fallback decision is expensive: every wasted hardware attempt is thrown-
// away speculative work. The ContentionManager consumes the existing
// AbortCause stream plus recent commit/abort history and adapts:
//
//  * kFixed      — bit-compatible with the historical behaviour: the
//                  Mixed-N coin, the fixed capacity-retry count, the fixed
//                  attempt budget, and the bounded-exponential backoff.
//                  Decision sequences AND RNG consumption are identical to
//                  the pre-ContentionManager code, so every existing series
//                  remains the baseline (tests pin this).
//  * kAdaptive   — per-thread escalation thresholds derived from an EWMA
//                  of recent hardware-abort density: under contention the
//                  thread gives up on hardware after fewer attempts, and a
//                  long failure streak sends it straight to software with
//                  periodic hardware re-probes (progressiveness without
//                  burning doomed speculation). Backoff is shaped by cause:
//                  none after capacity (escalation is imminent),
//                  proportional to the observed conflict density after
//                  conflicts, bounded-exponential otherwise.
//
// The policy is selected per universe (UniverseConfig::cm; the contention
// and ablation_policy scenarios set it per series); the per-protocol
// *limits* (coin percentage, attempt budget, capacity retries) come from
// each protocol and are merged in at ThreadCtx construction. All state is
// per-thread and all decisions are deterministic functions of the call
// sequence and the caller-supplied RNG — no clocks, no globals.

#include <cstdint>

#include "core/rng.h"
#include "core/stats.h"
#include "core/trace.h"

namespace rhtm {

/// The contention-management policy axis (UniverseConfig::cm).
enum class CmPolicy : std::uint8_t { kFixed, kAdaptive };

/// Canonical policy names, as the contention series name them.
[[nodiscard]] constexpr const char* to_string(CmPolicy p) {
  switch (p) {
    case CmPolicy::kFixed: return "fixed";
    case CmPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

/// Universe-level contention-management configuration: the policy. The
/// adaptive engine's thresholds are ContentionManager constants; per-protocol
/// limits (the Mixed-N coin, the hardware attempt budget, capacity retries)
/// come from each protocol — see ContentionManager::Limits.
struct CmConfig {
  CmPolicy policy = CmPolicy::kFixed;
};

namespace detail {

/// The raw bounded-exponential spin (the historical detail::backoff body).
inline void exponential_spin(unsigned step, unsigned cap_shift) {
  const unsigned shift = step < cap_shift ? step : cap_shift;
  for (unsigned i = 0; i < (1u << shift); ++i) cpu_relax();
}

}  // namespace detail

/// Per-thread contention manager. One instance per protocol ThreadCtx;
/// never shared across threads (all state is thread-local by construction,
/// which the tests pin as "per-thread independence").
class ContentionManager {
 public:
  /// The per-protocol fixed-policy limits, merged in by each ThreadCtx.
  struct Limits {
    unsigned slow_retry_percent = 0;  ///< Mixed-N coin; 0 = never by coin
    unsigned max_hw_attempts = 0;     ///< fixed attempt budget; 0 = unbounded
    unsigned capacity_retries = 2;    ///< capacity aborts before escalation
  };

  /// EWMA decay: new = old + (obs - old) >> kEwmaShift.
  static constexpr unsigned kEwmaShift = 3;
  /// Exponential backoff cap: at most 1 << kBackoffCapShift pauses.
  static constexpr unsigned kBackoffCapShift = 10;
  /// Adaptive escalation thresholds: attempts-before-software interpolated
  /// between these bounds by the abort-density EWMA (quiet -> max, fully
  /// contended -> min).
  static constexpr unsigned kAdaptMinAttempts = 1;
  static constexpr unsigned kAdaptMaxAttempts = 6;
  /// Software mode: after this many *consecutive* hardware failures the
  /// thread stops attempting hardware entirely...
  static constexpr unsigned kSwStreak = 4;
  /// ...and re-probes hardware once every kProbePeriod transactions.
  static constexpr unsigned kProbePeriod = 64;

  ContentionManager() : ContentionManager(CmConfig{}, Limits{}) {}
  ContentionManager(const CmConfig& cfg, const Limits& lim) : cfg_(cfg), lim_(lim) {}

  /// Attaches the owning ThreadCtx's trace ring (null = no tracing). The
  /// manager then records its mode decisions — software-mode enter/exit
  /// and hardware re-probes — as cm:* events on that ring.
  void set_trace(trace::TraceRing* r) { trace_ = r; }

  /// Start of a transaction: resets the per-transaction attempt counters
  /// and decides whether to skip hardware entirely this transaction.
  /// Adaptive only: after kSwStreak consecutive hardware failures the
  /// thread runs software-first, re-probing hardware once every
  /// kProbePeriod transactions. Fixed always returns false.
  [[nodiscard]] bool start_in_software() {
    tx_attempts_ = 0;
    tx_capacity_ = 0;
    if (cfg_.policy != CmPolicy::kAdaptive) return false;
    if (streak_ < kSwStreak) return false;
    if (++since_probe_ >= kProbePeriod) {
      since_probe_ = 0;  // probe hardware again this once
      trace::cm_event(trace_, trace::EventKind::kSwModeProbe);
      return false;
    }
    return true;
  }

  /// Records a hardware abort and decides whether to stop speculating and
  /// escalate to the software path (or non-speculative fallback). `rng` is
  /// the caller's per-thread RNG; the fixed policy's Mixed-N coin draws
  /// from it exactly as the historical code did (bit-compat).
  [[nodiscard]] bool give_up_hardware(AbortCause cause, Xoshiro256& rng) {
    ++tx_attempts_;
    last_cause_ = cause;
    ++streak_;
    if (cfg_.policy == CmPolicy::kAdaptive && streak_ == kSwStreak) {
      trace::cm_event(trace_, trace::EventKind::kSwModeEnter);
    }
    ewma_bp_ += (10000 - ewma_bp_) >> kEwmaShift;
    // Deterministic overflow: retrying an over-budget transaction in
    // hardware is futile under every policy.
    if (cause == AbortCause::kHtmCapacity && ++tx_capacity_ >= lim_.capacity_retries) {
      return true;
    }
    switch (cfg_.policy) {
      case CmPolicy::kFixed:
        if (lim_.max_hw_attempts != 0 && tx_attempts_ >= lim_.max_hw_attempts) return true;
        return lim_.slow_retry_percent > 0 &&
               rng.percent_chance(lim_.slow_retry_percent);
      case CmPolicy::kAdaptive:
        return tx_attempts_ >= hw_threshold();
    }
    return false;
  }

  /// A hardware transaction committed: the streak breaks, the abort
  /// density decays, and software mode (if any) ends.
  void on_hardware_commit() {
    if (cfg_.policy == CmPolicy::kAdaptive && streak_ >= kSwStreak) {
      trace::cm_event(trace_, trace::EventKind::kSwModeExit);
    }
    streak_ = 0;
    since_probe_ = 0;
    ewma_bp_ -= ewma_bp_ >> kEwmaShift;
  }

  /// A software-path commit. Deliberately does NOT reset the failure
  /// streak: only hardware succeeding is evidence that hardware works, so
  /// adaptive software mode persists until a probe commits in hardware.
  void on_software_commit() {}

  /// Entry to a software execution (detail::software_attempts): resets the
  /// software backoff step, mirroring the historical per-call counter.
  void begin_software() { sw_step_ = 0; }

  /// Backoff between hardware retries, shaped by policy and last cause.
  void backoff_hardware() {
    const unsigned step = tx_attempts_ > 0 ? tx_attempts_ - 1 : 0;
    switch (cfg_.policy) {
      case CmPolicy::kFixed:
        detail::exponential_spin(step, kBackoffCapShift);
        return;
      case CmPolicy::kAdaptive:
        if (last_cause_ == AbortCause::kHtmCapacity) return;  // escalation imminent
        if (last_cause_ == AbortCause::kHtmConflict ||
            last_cause_ == AbortCause::kInjected) {
          proportional_spin(step);
          return;
        }
        detail::exponential_spin(step, kBackoffCapShift);
        return;
    }
  }

  /// Backoff between software-path retries (locked stripes, failed
  /// validation). The step counter spans all software retries of the
  /// current transaction, mirroring the historical per-call counter.
  void backoff_software() {
    const unsigned cap = kBackoffCapShift;
    detail::exponential_spin(sw_step_++, cap);
    if (sw_step_ > cap + 1) sw_step_ = cap + 1;  // saturate; spin is capped anyway
  }

  /// Backoff between retries of a hardware *commit* transaction (the RH1
  /// reduced commit / RH2 commit conflict loop). `step` is the commit
  /// loop's own retry counter.
  void backoff_commit(unsigned step) {
    detail::exponential_spin(step, kBackoffCapShift);
  }

  // ---- introspection (tests, metrics) -------------------------------------
  /// Recent hardware-abort density in basis points (0..10000 EWMA).
  [[nodiscard]] unsigned abort_ewma_bp() const { return ewma_bp_; }
  /// Consecutive hardware failures (across transactions).
  [[nodiscard]] unsigned failure_streak() const { return streak_; }
  /// The adaptive policy's current attempts-before-software threshold:
  /// interpolated between kAdaptMaxAttempts (quiet) and kAdaptMinAttempts
  /// (contended) by the abort-density EWMA — monotonically non-increasing
  /// in density.
  [[nodiscard]] unsigned hw_threshold() const {
    constexpr unsigned span = kAdaptMaxAttempts - kAdaptMinAttempts;
    // Round-half interpolation: the shift-based EWMA saturates a few basis
    // points shy of 10000, and a floor here would leave the threshold one
    // above the minimum under full contention.
    return kAdaptMaxAttempts -
           static_cast<unsigned>((static_cast<std::uint64_t>(span) * ewma_bp_ + 5000) / 10000);
  }

 private:
  /// Conflict backoff proportional to observed contention: a thread seeing
  /// a dense abort stream yields longer (there are many conflicters to
  /// drain), a thread seeing its first conflict in a while barely waits.
  void proportional_spin(unsigned step) const {
    const unsigned cap = 1u << kBackoffCapShift;
    unsigned iters = (ewma_bp_ >> 5) * (step + 1);
    if (iters > cap) iters = cap;
    for (unsigned i = 0; i < iters; ++i) detail::cpu_relax();
  }

  CmConfig cfg_;
  Limits lim_;
  trace::TraceRing* trace_ = nullptr;
  // Per-transaction state (reset by start_in_software).
  unsigned tx_attempts_ = 0;
  unsigned tx_capacity_ = 0;
  unsigned sw_step_ = 0;
  AbortCause last_cause_ = AbortCause::kHtmConflict;
  // Cross-transaction history.
  unsigned streak_ = 0;
  unsigned since_probe_ = 0;
  unsigned ewma_bp_ = 0;
};

}  // namespace rhtm
