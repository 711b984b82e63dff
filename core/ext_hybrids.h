#pragma once

// The two alternative hybrid designs RH1 was proposed to replace (§1),
// implemented for the ext_hybrids bench:
//
//  * HybridNorec — tiny instrumentation (one global sequence lock), but a
//    writer's commit bumps the sequence word that every concurrent hardware
//    transaction has subscribed to, so writer commits abort ALL overlapping
//    hardware transactions: coarse-grained conflicts.
//
//  * PhasedTm — runs everyone in uninstrumented hardware while it can, but
//    a single transaction needing software flips a global phase word and
//    drags every thread into the STM phase until the stragglers drain.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/tl2.h"

namespace rhtm {

// ---------------------------------------------------------------------------
// HybridNorec
// ---------------------------------------------------------------------------
template <class H>
class HybridNorec {
 public:
  /// Capacity aborts before giving up on hardware.
  static constexpr unsigned kCapacityRetries = 2;

  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned max_hw_attempts = 8;  ///< 0 disables the hardware path
  };

  class ThreadCtx : public detail::HwTxContext<H> {
   public:
    explicit ThreadCtx(HybridNorec& tm)
        : detail::HwTxContext<H>(tm.u_, ContentionManager::Limits{
                                            0, tm.cfg_.max_hw_attempts, kCapacityRetries}) {}

   private:
    friend class HybridNorec;
    WriteSet ws_;
    std::vector<std::pair<const TmCell*, TmWord>> read_log_;  ///< value-based (NOrec)
    std::vector<pmem::CapturedWrite> hw_redo_;  ///< durable: hw-path write capture
  };

  explicit HybridNorec(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] { run(ctx, body); });
  }

 private:
  /// Hardware handle: plain accesses; only tracks whether we wrote (and, in
  /// durable mode, captures the writes for the post-_xend redo log).
  struct HwHandle {
    typename H::Tx& t;
    bool& wrote;
    std::vector<pmem::CapturedWrite>* redo;  ///< non-null in durable mode
    TmWord load(const TmCell& c) { return t.load(c); }
    void store(TmCell& c, TmWord v) {
      wrote = true;
      t.store(c, v);
      if (redo != nullptr) redo->push_back({&c, v});
    }
  };

  /// Software handle: NOrec value-based read log + buffered writes.
  struct SwHandle {
    HybridNorec& tm;
    ThreadCtx& ctx;
    TmWord& snapshot;

    TmWord load(const TmCell& c) {
      if (const WriteEntry* e = ctx.ws_.find(c)) return e->value;
      for (;;) {
        // Epoch-bracketed so a hardware commit's multi-word write-back (data
        // stores before its seq bump) cannot slip a torn value past the
        // snapshot check.
        const TmWord e1 = tm.u_.htm().publication_epoch();
        const TmWord val = tm.u_.htm().nontx_load(c);
        const TmWord e2 = tm.u_.htm().publication_epoch();
        if ((e1 & 1) != 0 || e1 != e2) {
          detail::cpu_relax();
          continue;
        }
        if (tm.seq_.word.load(std::memory_order_acquire) != snapshot) {
          snapshot = tm.revalidate(ctx);
          continue;
        }
        // Consecutive re-reads of the same cell add nothing to value-based
        // revalidation (an unchanged seq snapshot pins the value), so the
        // log — like the stripe-indexed sets — only grows on new
        // observations. Prefix-scan shapes no longer quadruple it.
        if (ctx.read_log_.empty() || ctx.read_log_.back().first != &c) {
          ctx.read_log_.push_back({&c, val});
        }
        return val;
      }
    }

    // NOrec has no stripe metadata; the write-set's stripe field is unused.
    void store(TmCell& c, TmWord v) { ctx.ws_.put(c, v, 0); }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    const bool durable = u_.durable();
    // max_hw_attempts == 0 disables the hardware path outright (the crash
    // harness uses it to force the software commit path deterministically).
    if (cfg_.max_hw_attempts == 0 || ctx.cm.start_in_software()) {
      run_software(ctx, body);
      return;
    }
    bool wrote = false;
    TmWord seq_held = 0;
    if (detail::hardware_attempts(
        ctx, u_.htm(), injector_, ExecPath::kHtm,
        [&] {
          wrote = false;
          if (durable) ctx.hw_redo_.clear();  // aborted attempts leave entries behind
          return true;
        },
        [&](typename H::Tx& t) {
          const TmWord s0 = t.load(seq_);  // subscribe to the global sequence lock
          if ((s0 & 1) != 0) t.abort_explicit();
          HwHandle h{t, wrote, durable ? &ctx.hw_redo_ : nullptr};
          body(h);
          // Durable writers come out of _xend still HOLDING the sequence lock
          // (odd): the values are in memory, but every concurrent reader —
          // hardware txns subscribe to seq_, software revalidates against it —
          // is fenced out until the post-_xend persist releases it. The
          // non-durable commit bump releases immediately (s0 + 2).
          if (wrote) t.store(seq_, durable ? s0 + 1 : s0 + 2);
          seq_held = s0;
        },
        [&] {
          if (!durable || !wrote) return;
          u_.pmem().persist(ctx.hw_redo_, pmem::kPathNorecHw, ctx.ring, detail::kNoop);
          seq_.word.store(seq_held + 2, std::memory_order_release);
        })) {
      return;
    }
    trace::escalate(ctx.ring, ExecPath::kStm);
    run_software(ctx, body);
  }

  /// NOrec keeps no version clock: its software aborts leave the clock alone.
  template <class Body>
  void run_software(ThreadCtx& ctx, Body& body) {
    detail::software_attempts(ctx, ExecPath::kStm, detail::kNoop, [&](ExecPath&) {
      ctx.ws_.clear();
      ctx.read_log_.clear();
      TmWord snapshot = wait_quiescent();
      SwHandle h{*this, ctx, snapshot};
      body(h);
      if (!ctx.ws_.empty()) {
        for (;;) {  // acquire the sequence lock at our validated snapshot
          TmWord expected = snapshot;
          if (u_.htm().nontx_atomic([&] {
                return seq_.word.compare_exchange_strong(expected, snapshot + 1,
                                                         std::memory_order_acq_rel);
              })) {
            break;
          }
          snapshot = revalidate(ctx);
        }
        // Sequence lock held (odd) across the whole write-back: in durable
        // mode log + mark before values become visible, apply before
        // release — readers never consume a value not yet durably marked.
        u_.publish_writes(ctx.ws_.entries(), pmem::kPathNorecSw, ctx.ring);
        seq_.word.store(snapshot + 2, std::memory_order_release);
      }
      return ExecPath::kStm;
    });
  }

  TmWord wait_quiescent() {
    for (;;) {
      const TmWord s = seq_.word.load(std::memory_order_acquire);
      if ((s & 1) == 0) return s;
      detail::cpu_relax();
    }
  }

  /// NOrec value-based revalidation: wait for a quiescent sequence, re-read
  /// every logged value, and adopt the new snapshot if nothing moved.
  TmWord revalidate(ThreadCtx& ctx) {
    for (;;) {
      const TmWord s = wait_quiescent();
      for (const auto& [cell, seen] : ctx.read_log_) {
        if (u_.htm().nontx_load(*cell) != seen) {
          throw detail::StmAbort{AbortCause::kStmValidation};
        }
      }
      if (seq_.word.load(std::memory_order_acquire) == s) return s;
    }
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
  TmCell seq_;  ///< global sequence lock: even = quiet, odd = writer committing
};

// ---------------------------------------------------------------------------
// PhasedTm
// ---------------------------------------------------------------------------
template <class H>
class PhasedTm {
 public:
  /// Hardware attempts before the software phase, and capacity aborts
  /// before giving up on hardware.
  static constexpr unsigned kMaxHwAttempts = 8;
  static constexpr unsigned kCapacityRetries = 2;

  struct Config {
    std::uint32_t inject_abort_bp = 0;
  };

  class ThreadCtx : public detail::HwTxContext<H> {
   public:
    explicit ThreadCtx(PhasedTm& tm)
        : detail::HwTxContext<H>(tm.u_, ContentionManager::Limits{0, kMaxHwAttempts,
                                                                  kCapacityRetries}) {}

   private:
    friend class PhasedTm;
    ReadSet rs_;
    WriteSet ws_;
    std::vector<std::uint32_t> lock_scratch_;
  };

  explicit PhasedTm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] { run(ctx, body); });
  }

  /// Exposed for tests: number of transactions currently in software mode.
  [[nodiscard]] TmWord software_pending() const { return phase_.unsafe_load(); }

 private:
  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // Durable universes always run the software phase: the uninstrumented
    // hardware handle captures no redo, so its commits could not be logged.
    // (HybridTm's fast path shows what a durable hardware phase costs; the
    // phased design's whole point is zero instrumentation, so it opts out.)
    if (!u_.durable() && !ctx.cm.start_in_software() &&
        detail::hardware_attempts(
            ctx, u_.htm(), injector_, ExecPath::kHtm,
            [&] { return phase_.word.load(std::memory_order_acquire) == 0; },  // HW phase?
            [&](typename H::Tx& t) {
              if (t.load(phase_) != 0) t.abort_explicit();  // subscribe to the phase word
              detail::HwPlainHandle<typename H::Tx> h{t};
              body(h);
            },
            detail::kNoop)) {
      return;
    }
    // Software phase: registering flips (or keeps) the phase word nonzero,
    // which aborts every in-flight hardware transaction and diverts new ones
    // here — the whole system pays STM until the count drains back to zero.
    trace::escalate(ctx.ring, ExecPath::kStm);
    u_.htm().nontx_atomic([&] { return phase_.word.fetch_add(1, std::memory_order_acq_rel); });
    detail::tl2_run(u_, ctx, ctx.rs_, ctx.ws_, ctx.lock_scratch_, body);
    phase_.word.fetch_sub(1, std::memory_order_acq_rel);
  }

  TmUniverse<H>& u_;
  AbortInjector injector_;
  TmCell phase_;  ///< count of transactions currently executing in software
};

}  // namespace rhtm
