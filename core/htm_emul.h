#pragma once

// HtmEmul — the emulated best-effort HTM substrate (the paper's §3
// methodology, written before commodity RTM existed): transactional loads
// and stores compile to plain memory accesses plus a register-counter
// capacity check. There is NO conflict detection and NO rollback; the
// figure benches model contention by injecting aborts at the ratio measured
// from a TL2 run of the same configuration. See docs/ARCHITECTURE.md for
// exactly where this deviates from real RTM.

#include <utility>

#include "core/htm_common.h"

namespace rhtm {

class HtmEmul {
 public:
  HtmEmul() = default;
  explicit HtmEmul(const HtmConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const HtmConfig& config() const { return cfg_; }

  class Tx {
   public:
    explicit Tx(HtmEmul& htm) : htm_(htm) {}

    /// Plain-access transactional load (one mov + a counter bump).
    TmWord load(const TmCell& c) {
      if (++reads_ > htm_.cfg_.max_read_set) throw detail::HtmAbort{HtmStatus::kCapacity};
      return c.word.load(std::memory_order_acquire);
    }

    /// Plain-access transactional store: applied immediately, NOT rolled
    /// back on abort (the emulation's documented infidelity).
    void store(TmCell& c, TmWord v) {
      if (++writes_ > htm_.cfg_.max_write_set) throw detail::HtmAbort{HtmStatus::kCapacity};
      c.word.store(v, std::memory_order_release);
    }

    [[noreturn]] void abort_explicit() { throw detail::HtmAbort{HtmStatus::kExplicit}; }

    /// Mark this attempt as injected-doomed: the body still runs (wasted
    /// work, like a real conflict abort) but commit reports kInjected.
    void poison() { poisoned_ = true; }

   private:
    friend class HtmEmul;
    void reset() {
      reads_ = 0;
      writes_ = 0;
      poisoned_ = false;
    }

    HtmEmul& htm_;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
    bool poisoned_ = false;
  };

  template <class Body>
  HtmOutcome execute(Tx& tx, Body&& body) {
    tx.reset();
    try {
      std::forward<Body>(body)(tx);
    } catch (const detail::HtmAbort& a) {
      return HtmOutcome{a.status};
    }
    if (tx.poisoned_) return HtmOutcome{HtmStatus::kInjected};
    return HtmOutcome{HtmStatus::kCommitted};
  }

  [[nodiscard]] TmWord nontx_load(const TmCell& c) const {
    return c.word.load(std::memory_order_acquire);
  }
  void nontx_store(TmCell& c, TmWord v) { c.word.store(v, std::memory_order_release); }
  /// No commit atomicity to preserve: runs `f` directly.
  template <class F>
  static auto nontx_atomic(F&& f) {
    return f();
  }

  template <class Entries>
  void nontx_publish(const Entries& entries) {
    for (const auto& e : entries) {
      e.cell->word.store(e.value, std::memory_order_release);
    }
  }

  /// The emulated substrate has no publication atomicity to protect (its
  /// hardware commits are not atomic either); readers never need to retry.
  [[nodiscard]] static constexpr TmWord publication_epoch() { return 0; }

 private:
  HtmConfig cfg_;
};

template <>
struct SubstrateTraits<HtmEmul> {
  static constexpr SubstrateKind kKind = SubstrateKind::kEmul;
  static constexpr const char* kName = to_string(kKind);
  /// No conflict detection, no rollback: concurrent executions are a
  /// modelling device (aborts are injected), not serializable histories.
  static constexpr bool kAtomic = false;
};

}  // namespace rhtm
