#pragma once

// StandardHytm — the conventional hybrid baseline the paper argues against:
// the hardware path instruments *every* access with a stripe-metadata read
// (and writes additionally publish the stripe version), so hardware
// transactions pay a metadata load + branch per data access and generate
// coherence traffic on the stripe words. The software fallback is TL2.
//
// `hardware_only` is the paper's best-case configuration: the software
// fallback is disabled, so the series shows pure instrumentation overhead
// with no mixed-mode penalty (deterministic capacity overflows still take a
// non-speculative lock fallback for liveness).

#include <cstdint>
#include <vector>

#include "core/indexed_set.h"
#include "core/tl2.h"

namespace rhtm {

template <class H>
class StandardHytm {
 public:
  struct Config {
    bool hardware_only = false;
    std::uint32_t inject_abort_bp = 0;
    unsigned max_hw_attempts = 8;   ///< before falling back to software
    unsigned capacity_retries = 2;  ///< capacity aborts before giving up on HW
  };

  class ThreadCtx : public detail::HwTxContext<H> {
   public:
    explicit ThreadCtx(StandardHytm& tm)
        : detail::HwTxContext<H>(
              tm.u_, ContentionManager::Limits{
                         0, tm.cfg_.hardware_only ? 0 : tm.cfg_.max_hw_attempts,
                         tm.cfg_.capacity_retries}) {}

   private:
    friend class StandardHytm;
    ReadSet rs_;
    WriteSet ws_;
    std::vector<std::uint32_t> lock_scratch_;
    StripeSet hw_written_;  ///< distinct stripes the hardware path stamps
  };

  explicit StandardHytm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] { run(ctx, body); });
  }

 private:
  /// The instrumented hardware handle: metadata load + locked-check on every
  /// access; writes record their stripe (exactly deduplicated) for
  /// commit-time publication.
  struct HwHandle {
    typename H::Tx& t;
    StripeTable& st;
    StripeSet& written;

    TmWord load(const TmCell& c) {
      const std::size_t s = st.index_of(&c);
      if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
      return t.load(c);
    }
    void store(TmCell& c, TmWord v) {
      const std::size_t s = st.index_of(&c);
      if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
      t.store(c, v);
      written.insert(static_cast<std::uint32_t>(s));
    }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // Durable universes go straight to the TL2 fallback (which redo-logs
    // its write-back); the instrumented hardware handle has no redo capture
    // and the baseline's contract is not worth complicating — the durable
    // hardware commit story is HybridTm's (core/rh1.h).
    if (!u_.durable() && (cfg_.hardware_only || cfg_.max_hw_attempts > 0) &&
        !ctx.cm.start_in_software() &&
        detail::hardware_attempts(
            ctx, u_.htm(), injector_, ExecPath::kHtm,
            [&] {
              ctx.hw_written_.clear();
              return true;
            },
            [&](typename H::Tx& t) {
              fallback_.subscribe(t);
              HwHandle h{t, u_.stripes(), ctx.hw_written_};
              body(h);
              if (!ctx.hw_written_.empty()) u_.hw_commit_stamp(t, ctx.hw_written_.items());
            },
            [&] {
              if (!ctx.hw_written_.empty()) u_.clock().note_hw_commit();
            })) {
      return;
    }
    if (!u_.durable() && cfg_.hardware_only) {
      // No STM fallback in hardware-only mode: capacity overflow (and, under
      // the adaptive policy, a hopeless conflict streak) takes the
      // non-speculative lock for liveness.
      detail::run_under_lock(ctx, fallback_, u_.htm(), body);
      return;
    }
    trace::escalate(ctx.ring, ExecPath::kStm);
    detail::tl2_run(u_, ctx, ctx.rs_, ctx.ws_, ctx.lock_scratch_, body);
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
  detail::FallbackLock fallback_;
};

}  // namespace rhtm
