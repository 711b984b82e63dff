#pragma once

// HtmRtm — the real-hardware substrate: the same substrate concept as
// HtmEmul/HtmSim (Tx::load/store, execute, nontx_*, publication_epoch)
// implemented over Intel RTM (_xbegin/_xend/_xabort), so the protocol
// templates run unchanged on genuine best-effort hardware transactions.
//
// Compile gate: RHTM_HAVE_RTM, derived from __RTM__ (set by -mrtm /
// -DRHTM_ENABLE_RTM=ON). Without it the class still compiles on any
// platform: execute() then reports every attempt as a capacity failure so
// protocols escalate to their software paths, and available() is false so
// the bench driver refuses --substrate=rtm with a diagnostic instead of
// ever reaching an illegal instruction.
//
// Runtime gate: available() checks CPUID.07H:EBX.RTM[bit 11] once. Some
// machines advertise RTM but abort every transaction (TSX disabled by
// microcode against TAA); hardware_viable() additionally probes that a
// trivial transaction can commit.
//
// Fidelity notes (docs/ARCHITECTURE.md has the full comparison):
//  * Loads and stores are genuinely uninstrumented apart from a register
//    counter that enforces the *configured* HtmConfig budgets, mirroring the
//    paper's emulation. Real hardware may abort on capacity well before the
//    configured ceiling (its read/write sets are cache-geometry bound) —
//    the counter only makes deterministic-overflow behaviour (and the
//    capacity ablations) portable across substrates.
//  * Aborts roll back all transactional stores — unlike HtmEmul.
//  * An abort with no hardware cause bits (page fault, interrupt, TSX
//    force-abort) is classified as kCapacity: the hardware is saying
//    "retrying is futile", and protocols treat capacity as the signal to
//    escalate, which preserves liveness on hostile machines.

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "core/htm_common.h"
#include "core/pmu.h"

#ifndef RHTM_HAVE_RTM
#if defined(__RTM__)
#define RHTM_HAVE_RTM 1
#else
#define RHTM_HAVE_RTM 0
#endif
#endif

#if RHTM_HAVE_RTM
#include <immintrin.h>
#if defined(__GNUC__)
#include <cpuid.h>
#endif
#endif

namespace rhtm {

/// True when a substrate kind can be dispatched by this binary at all
/// (emul/sim always; rtm only in an RHTM_HAVE_RTM build).
[[nodiscard]] constexpr bool substrate_compiled(SubstrateKind k) {
  return k != SubstrateKind::kRtm || RHTM_HAVE_RTM != 0;
}

class HtmRtm {
 public:
  HtmRtm() = default;
  explicit HtmRtm(const HtmConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const HtmConfig& config() const { return cfg_; }

  /// Compiled with RTM intrinsics AND the CPU advertises RTM (checked once).
  [[nodiscard]] static bool available() {
#if RHTM_HAVE_RTM
    static const bool ok = cpu_has_rtm();
    return ok;
#else
    return false;
#endif
  }

  /// available() plus proof: a trivial transaction actually committed.
  /// False on CPUs whose microcode force-aborts every transaction.
  [[nodiscard]] static bool hardware_viable() {
#if RHTM_HAVE_RTM
    static const bool ok = probe_commits();
    return ok;
#else
    return false;
#endif
  }

  // _xabort codes (immediates). 0x7e is reserved for injection so explicit
  // protocol aborts (kExplicitCode) stay distinguishable.
  static constexpr unsigned kExplicitCode = 0x01;
  static constexpr unsigned kCapacityCode = 0x02;  ///< configured-budget ceiling
  static constexpr unsigned kInjectedCode = 0x7e;

  class Tx {
   public:
    /// Opens this thread's RTM PMU counters (protocol thread contexts are
    /// constructed on their worker thread, so pid=0 counts the right
    /// thread); unavailable perf degrades to a latched no-op (core/pmu.h).
    explicit Tx(HtmRtm& htm)
        : htm_(htm), pmu_(RHTM_HAVE_RTM != 0 && HtmRtm::available()) {}

    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    /// Folds this thread's hardware-measured RTM totals into the substrate.
    ~Tx() {
      if (pmu_.available()) htm_.pmu_totals_.merge(pmu_.sample());
    }

    /// One mov; the hardware tracks the line. The counter enforces only the
    /// configured ceiling (see header comment).
    TmWord load(const TmCell& c) {
#if RHTM_HAVE_RTM
      if (++reads_ > htm_.cfg_.max_read_set) _xabort(kCapacityCode);
#endif
      return c.word.load(std::memory_order_acquire);
    }

    void store(TmCell& c, TmWord v) {
#if RHTM_HAVE_RTM
      if (++writes_ > htm_.cfg_.max_write_set) _xabort(kCapacityCode);
#endif
      c.word.store(v, std::memory_order_release);
    }

    /// Only callable from inside execute()'s body, i.e. inside a live
    /// hardware transaction, where _xabort transfers control back to
    /// _xbegin. The trap is unreachable by construction.
    [[noreturn]] void abort_explicit() {
#if RHTM_HAVE_RTM
      _xabort(kExplicitCode);
#endif
      std::abort();
    }

    /// Mark the attempt injected-doomed: the body still runs (wasted work,
    /// like a real conflict) and execute() aborts it at the commit point, so
    /// unlike HtmEmul the poisoned stores really are rolled back.
    void poison() { poisoned_ = true; }

   private:
    friend class HtmRtm;
    void reset() {
      reads_ = 0;
      writes_ = 0;
      poisoned_ = false;
    }

    HtmRtm& htm_;
    pmu::RtmCounters pmu_;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
    bool poisoned_ = false;
  };

  /// Hardware-measured RTM aggregate (PMU), summed over retired thread
  /// contexts. threads_sampled == 0 means the PMU was unavailable — the
  /// benches then mark the counters absent in the report meta instead of
  /// emitting zeros as if they were measurements.
  [[nodiscard]] pmu::RtmTotalsSnapshot pmu_totals() const { return pmu_totals_.snapshot(); }

  template <class Body>
  HtmOutcome execute(Tx& tx, Body&& body) {
#if RHTM_HAVE_RTM
    if (!available()) return HtmOutcome{HtmStatus::kCapacity};
    tx.reset();
    const unsigned status = _xbegin();
    if (status == _XBEGIN_STARTED) {
      std::forward<Body>(body)(tx);
      if (tx.poisoned_) _xabort(kInjectedCode);
      _xend();
      return HtmOutcome{HtmStatus::kCommitted};
    }
    return HtmOutcome{classify(status)};
#else
    // No hardware in this build: report a permanent capacity failure so the
    // caller escalates to its software path (never crashes, never commits).
    (void)tx;
    (void)body;
    return HtmOutcome{HtmStatus::kCapacity};
#endif
  }

  /// Real RTM is strongly isolated: a non-transactional store to a line a
  /// hardware transaction touched aborts that transaction, so plain atomic
  /// accesses suffice here — no commit lock (contrast HtmSim::nontx_store).
  [[nodiscard]] TmWord nontx_load(const TmCell& c) const {
    return c.word.load(std::memory_order_acquire);
  }
  void nontx_store(TmCell& c, TmWord v) { c.word.store(v, std::memory_order_release); }
  /// Strong isolation already makes `f`'s write abort every transaction
  /// that read the line (contrast HtmSim::nontx_atomic).
  template <class F>
  static auto nontx_atomic(F&& f) {
    return f();
  }

  /// Multi-word software publication. Hardware transactions are protected by
  /// strong isolation (any overlap aborts them); concurrent *software*
  /// readers rule out torn views through the shared publication seqlock,
  /// exactly as on HtmSim.
  template <class Entries>
  void nontx_publish(const Entries& entries) {
    pub_.publish(entries);
  }

  [[nodiscard]] TmWord publication_epoch() const { return pub_.epoch(); }

 private:
#if RHTM_HAVE_RTM
  [[nodiscard]] static HtmStatus classify(unsigned status) {
    if ((status & _XABORT_EXPLICIT) != 0) {
      switch (_XABORT_CODE(status)) {
        case kInjectedCode: return HtmStatus::kInjected;
        case kCapacityCode: return HtmStatus::kCapacity;
        default: return HtmStatus::kExplicit;
      }
    }
    if ((status & _XABORT_CAPACITY) != 0) return HtmStatus::kCapacity;
    if ((status & (_XABORT_CONFLICT | _XABORT_RETRY)) != 0) return HtmStatus::kConflict;
    // No cause bits: page fault, interrupt, unfriendly instruction, or
    // microcode force-abort. Retrying in hardware is futile — report
    // capacity so protocols escalate (see header comment).
    return HtmStatus::kCapacity;
  }

  [[nodiscard]] static bool cpu_has_rtm() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    return (b & (1u << 11)) != 0;
#else
    return false;
#endif
  }

  [[nodiscard]] static bool probe_commits() {
    if (!available()) return false;
    for (int i = 0; i < 64; ++i) {
      if (_xbegin() == _XBEGIN_STARTED) {
        _xend();
        return true;
      }
    }
    return false;
  }
#endif

  HtmConfig cfg_;
  detail::PublicationSeqlock pub_;
  pmu::RtmTotals pmu_totals_;
};

template <>
struct SubstrateTraits<HtmRtm> {
  static constexpr SubstrateKind kKind = SubstrateKind::kRtm;
  static constexpr const char* kName = to_string(kKind);
  static constexpr bool kAtomic = true;  ///< hardware-atomic commits, real rollback
};

}  // namespace rhtm
