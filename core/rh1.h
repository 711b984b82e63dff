#pragma once

// HybridTm — the paper's RH1 algorithm, with the RH2 / slow-slow escalation
// chain of §4.
//
// Fast path (kRh1Fast): the whole body runs in ONE hardware transaction.
// Reads are completely uninstrumented (one load). Writes store the data
// word and record the stripe; at the commit point (TmUniverse's, shared by
// every stripe-stamping hardware commit) the transaction re-reads the
// clock and publishes every written stripe at clock+1, so software
// readers serialize against fast commits through the ordinary TL2
// validation rules. Under the default GV6 clock the commit reads the clock
// but never writes it; a software reader that meets the stamp extends its
// read version past it (core/tl2.h). No read-set, no write buffering, no
// logging.
//
// Slow path (kRh1Slow): a TL2-style software body (instrumented reads into
// a ReadSet, writes buffered in a WriteSet) committed by a *reduced
// hardware transaction*: one short HTM transaction that revalidates the
// read stripes (metadata only — one stripe word per granule of data, the
// ~4x capacity headroom of §1.2), fetches a write version, and publishes
// write-set data + stripe versions atomically. No stripe locks anywhere on
// this path.
//
// RH2 (kRh2Slow): if the reduced commit itself exceeds the hardware budget,
// the transaction re-executes with *visible* reads — readers publish
// themselves on per-stripe read masks (fetch-add vs CAS-loop is ablation
// A4) — and commits with a write-set-only hardware transaction that refuses
// to overwrite stripes carrying foreign readers. While any RH2 transaction
// is active (a global counter both fast and RH1-slow commits subscribe to),
// every committer checks the masks of its write stripes.
//
// Slow-slow (kRh2SlowSlow): the final all-software fallback — the TL2
// stripe-locked commit, mask-respecting. Needs no hardware at all.
//
// Mixed-mode policy (§2.3): an aborted fast transaction retries in
// hardware; the per-thread ContentionManager (core/contention.h) decides
// when to fall back to the slow path instead. Under the default kFixed
// policy that is exactly the paper's `slow_retry_percent` coin; kAdaptive
// replaces the coin with abort-density-derived escalation thresholds and a
// software mode that skips doomed hardware attempts and re-probes
// periodically. The attempt loops themselves are core/attempt.h's; this
// file holds RH1's access handles and its commits.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/indexed_set.h"
#include "core/tl2.h"

namespace rhtm {

template <class H>
class HybridTm {
 public:
  /// Conflict retries of the reduced hardware commit before it gives up.
  static constexpr unsigned kCommitRetries = 8;
  /// Fast-path capacity aborts before the software fallback.
  static constexpr unsigned kCapacityRetries = 2;

  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned slow_retry_percent = 100;  ///< Mixed-N: % of aborts retried in software
    bool force_slow_path = false;       ///< breakdown bench: software body + HTM commit
    bool force_rh2 = false;             ///< ablation A4: visible-read slow mode
  };

  class ThreadCtx : public detail::HwTxContext<H> {
   public:
    explicit ThreadCtx(HybridTm& tm)
        : detail::HwTxContext<H>(tm.u_, ContentionManager::Limits{
                                            tm.cfg_.slow_retry_percent, 0,
                                            kCapacityRetries}) {}

   private:
    friend class HybridTm;
    ReadSet rs_;
    WriteSet ws_;
    StripeSet fast_written_;  ///< distinct stripes the fast path stamps
    std::vector<pmem::CapturedWrite> fast_redo_;  ///< durable: fast-path write capture
    std::vector<std::uint32_t> lock_scratch_;
    StripeSet masks_;  ///< stripes with our RH2 read mask published (O(1) self test)
  };

  explicit HybridTm(TmUniverse<H>& u, Config cfg = {})
      : u_(u), cfg_(cfg), injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] { run(ctx, body); });
  }

 private:
  // ---------------------------------------------------------------- fast --
  /// Uninstrumented reads; writes = data store + stripe bookkeeping. The
  /// written-stripe record is exactly deduplicated, so the commit point
  /// stamps each stripe once however the body's stores interleave.
  struct FastHandle {
    typename H::Tx& t;
    StripeTable& st;
    StripeSet& written;
    std::vector<pmem::CapturedWrite>* redo;  ///< non-null in durable mode

    TmWord load(const TmCell& c) {
      if (redo != nullptr &&
          StripeTable::is_locked(t.load(st.word(st.index_of(&c))))) {
        // Durable mode's one extra load per read (the fast-path fine-grained
        // locking cost): a locked stripe belongs to a commit that has
        // published its values in memory but not yet durably — reading them
        // now could make this transaction durable before its antecedent.
        // The stripe word joins the HTM read set, so the owner's unlock
        // conflicts us out rather than racing the data load.
        t.abort_explicit();
      }
      return t.load(c);
    }

    void store(TmCell& c, TmWord v) {
      const std::size_t s = st.index_of(&c);
      if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
      t.store(c, v);
      written.insert(static_cast<std::uint32_t>(s));
      if (redo != nullptr) redo->push_back({&c, v});
    }
  };

  template <class Body>
  void run(ThreadCtx& ctx, Body& body) {
    // Forced software modes, or adaptive software mode skipping doomed
    // hardware (the manager is consulted only when neither is forced).
    if (cfg_.force_slow_path || cfg_.force_rh2 || ctx.cm.start_in_software()) {
      run_slow(ctx, body, cfg_.force_rh2);
      return;
    }
    const bool durable = u_.durable();
    TmWord fast_wv = 0;
    if (detail::hardware_attempts(
        ctx, u_.htm(), injector_, ExecPath::kRh1Fast,
        [&] {
          ctx.fast_written_.clear();
          if (durable) ctx.fast_redo_.clear();  // aborted attempts leave entries behind
          return true;
        },
        [&](typename H::Tx& t) {
          FastHandle h{t, u_.stripes(), ctx.fast_written_,
                       durable ? &ctx.fast_redo_ : nullptr};
          body(h);
          const auto& written = ctx.fast_written_.items();
          if (written.empty()) return;
          // Only while RH2 readers exist: refuse stripes with visible
          // readers, all of them before the first stamp.
          if (t.load(rh2_active_) != 0) {
            for (const std::uint32_t s : written) {
              if (t.load(u_.stripes().read_mask(s)) != 0) t.abort_explicit();
            }
          }
          fast_wv = u_.hw_commit_stamp(t, written, detail::kNoStripeCheck);
        },
        [&] {
          if (ctx.fast_written_.empty()) return;
          u_.hw_committed(ctx.fast_redo_, ctx.fast_written_.items(), fast_wv,
                          pmem::kPathRh1Fast, ctx.ring);
        })) {
      return;
    }
    trace::escalate(ctx.ring, ExecPath::kRh1Slow);
    run_slow(ctx, body, false);
  }

  // ---------------------------------------------------------------- slow --
  /// RH2 visible-read barrier; the RH1-slow barrier is the plain Tl2Handle.
  struct Rh2Handle {
    HybridTm& tm;
    ThreadCtx& ctx;
    TmWord rv;  ///< moved forward by extensions, like Tl2Handle's

    TmWord load(const TmCell& c) {
      if (const WriteEntry* e = ctx.ws_.find(c)) return e->value;
      const std::size_t s = tm.u_.stripes().index_of(&c);
      tm.publish_once(ctx, static_cast<std::uint32_t>(s));
      return detail::stripe_validated_read(tm.u_, c, s, rv, ctx.rs_);
    }

    void store(TmCell& c, TmWord v) {
      ctx.ws_.put(c, v, static_cast<std::uint32_t>(tm.u_.stripes().index_of(&c)));
    }
  };

  template <class Body>
  void run_slow(ThreadCtx& ctx, Body& body, bool rh2) {
    const ExecPath first = rh2 ? ExecPath::kRh2Slow : ExecPath::kRh1Slow;
    const auto aborted = [&] { u_.clock_on_abort(ctx.ring); };
    detail::software_attempts(ctx, first, aborted, [&](ExecPath& path) {
      ctx.rs_.clear();
      ctx.ws_.clear();
      const TmWord rv = u_.clock().read();
      if (path == ExecPath::kRh1Slow) {
        detail::Tl2Handle<H> h{u_, ctx.rs_, ctx.ws_, rv};
        body(h);
        if (rh1_reduced_commit(ctx, h.rv)) return ExecPath::kRh1Slow;
        path = ExecPath::kRh2Slow;  // commit exceeds the hardware budget: go visible
        trace::escalate(ctx.ring, ExecPath::kRh2Slow);
        return detail::kRetryOnNewPath;
      }
      u_.htm().nontx_atomic(
          [&] { return rh2_active_.word.fetch_add(1, std::memory_order_acq_rel); });
      ctx.masks_.clear();
      ExecPath commit_path;
      try {
        Rh2Handle h{*this, ctx, rv};
        body(h);
        commit_path = rh2_commit(ctx, h.rv);
      } catch (...) {
        leave_rh2(ctx);
        throw;
      }
      leave_rh2(ctx);
      return commit_path;
    });
  }

  /// The reduced hardware commit (§2.1): metadata-only read validation +
  /// write-set publication in one short HTM transaction. Returns false when
  /// the commit transaction cannot fit in hardware (escalate to RH2);
  /// throws StmAbort when validation fails (retry the whole transaction).
  ///
  /// Both metadata loops run over exact-deduped stripe views (the ReadSet
  /// logs each stripe once, the WriteSet keeps a distinct-stripe list), so
  /// the transaction's hardware footprint is proportional to the DISTINCT
  /// stripe count of the transaction — re-reading a hot stripe a hundred
  /// times costs one commit-time load, not a hundred.
  bool rh1_reduced_commit(ThreadCtx& ctx, TmWord rv) {
    if (ctx.ws_.empty()) return true;  // read-only: access-time validation suffices
    StripeTable& st = u_.stripes();
    bool check_masks = false;
    const HtmStatus status = write_set_commit(
        ctx, pmem::kPathRh1,
        [&](typename H::Tx& t) {
          const auto& read_stripes = ctx.rs_.stripes();  // distinct by construction
          for (std::size_t i = 0; i < read_stripes.size(); ++i) {
            // Hide the next validation load's miss behind this one's check:
            // the stripe list is exact-deduped insertion order, so the walk
            // has no stride the hardware prefetcher could learn.
            if (i + 1 < read_stripes.size()) st.prefetch_word(read_stripes[i + 1]);
            const TmWord w = t.load(st.word(read_stripes[i]));
            if (StripeTable::is_locked(w) || StripeTable::version_of(w) > rv) {
              t.abort_explicit();
            }
          }
          check_masks = t.load(rh2_active_) != 0;
        },
        [&](typename H::Tx& t, std::uint32_t s) {
          if (StripeTable::is_locked(t.load(st.word(s)))) t.abort_explicit();
          if (check_masks && t.load(st.read_mask(s)) != 0) t.abort_explicit();
        });
    if (status == HtmStatus::kCommitted) return true;
    if (status == HtmStatus::kCapacity) {
      // The reduced commit itself overflowed hardware; the transaction
      // re-executes with visible reads (RH2), so this is a real abort —
      // count it, or capacity escalation is invisible in every report.
      detail::record_abort(ctx, AbortCause::kHtmCapacity);
      return false;
    }
    throw detail::StmAbort{AbortCause::kStmValidation};  // explicit, or retries exhausted
  }

  /// RH2 commit: write-set-only hardware transaction. Reads are protected by
  /// the published masks, so the transaction never touches read metadata —
  /// it only refuses to overwrite stripes carrying *foreign* readers.
  /// Escalates to the all-software slow-slow commit when hardware fails.
  /// A write stripe stamped past `rv` is first admitted by extending `rv`,
  /// as a read of it would be (GV6 stamps the previous commit at clock+1;
  /// under GV1/GV4 the extension refuses, as the commit's check would).
  ExecPath rh2_commit(ThreadCtx& ctx, TmWord rv) {
    if (ctx.ws_.empty()) return ExecPath::kRh2Slow;  // visible reads validated at access
    StripeTable& st = u_.stripes();
    for (const std::uint32_t s : ctx.ws_.write_stripes()) {
      const TmWord v = StripeTable::version_of(st.word(s).word.load(std::memory_order_acquire));
      if (v > rv) detail::extend_read_version(u_, v, rv, ctx.rs_);
    }
    const HtmStatus status = write_set_commit(
        ctx, pmem::kPathRh2, [](typename H::Tx&) {},
        [&](typename H::Tx& t, std::uint32_t s) {
          const TmWord w = t.load(st.word(s));
          if (StripeTable::is_locked(w) || StripeTable::version_of(w) > rv) {
            t.abort_explicit();
          }
          // publish_once leaves at most one own mask per stripe.
          if (t.load(st.read_mask(s)) > (ctx.masks_.contains(s) ? 1u : 0u)) {
            t.abort_explicit();  // a foreign visible reader holds this stripe
          }
        });
    if (status == HtmStatus::kCommitted) return ExecPath::kRh2Slow;
    if (status == HtmStatus::kExplicit) throw detail::StmAbort{AbortCause::kStmValidation};
    if (status == HtmStatus::kCapacity) {
      // Same observability rule as the reduced commit: the hardware
      // commit overflowed, and escalation must be visible in reports
      // even though the slow-slow commit completes this same attempt.
      detail::record_abort(ctx, AbortCause::kHtmCapacity);
    }
    trace::escalate(ctx.ring, ExecPath::kRh2SlowSlow);
    detail::tl2_software_commit(u_, ctx.rs_, ctx.ws_, rv, ctx.lock_scratch_, &ctx.masks_,
                                ctx.ring);
    return ExecPath::kRh2SlowSlow;
  }

  /// The transaction RH1's two software-path commits share: `prologue(t)`,
  /// the universe's commit point with `check(t, s)` per unique write
  /// stripe, then the write-set data. Retried with backoff while it
  /// conflicts, at most kCommitRetries times; returns the final status.
  template <class Prologue, class Check>
  HtmStatus write_set_commit(ThreadCtx& ctx, const char* path, Prologue&& prologue,
                             Check&& check) {
    for (unsigned tries = 0;;) {
      TmWord wv = 0;
      const HtmOutcome out = u_.htm().execute(ctx.tx, [&](typename H::Tx& t) {
        prologue(t);
        wv = u_.hw_commit_stamp(t, ctx.ws_.write_stripes(), check);
        for (const WriteEntry& e : ctx.ws_.entries()) t.store(*e.cell, e.value);
      });
      if (out.ok()) {
        u_.hw_committed(ctx.ws_.entries(), ctx.ws_.write_stripes(), wv, path, ctx.ring);
        return HtmStatus::kCommitted;
      }
      if (out.status == HtmStatus::kCapacity || out.status == HtmStatus::kExplicit ||
          ++tries >= kCommitRetries) {
        return out.status;
      }
      ctx.cm.backoff_commit(tries);
    }
  }

  void publish_once(ThreadCtx& ctx, std::uint32_t stripe) {
    if (ctx.masks_.insert(stripe).fresh) {
      u_.htm().nontx_atomic([&] { u_.stripes().publish_read(stripe); });
    }
  }

  /// Unpublishes every read mask and leaves the live-RH2 count.
  void leave_rh2(ThreadCtx& ctx) {
    for (const std::uint32_t s : ctx.masks_.items()) u_.stripes().unpublish_read(s);
    ctx.masks_.clear();
    rh2_active_.word.fetch_sub(1, std::memory_order_acq_rel);
  }

  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
  TmCell rh2_active_;  ///< live RH2 transactions; committers subscribe

 public:
  /// Exposed for tests: number of in-flight RH2 transactions.
  [[nodiscard]] TmWord rh2_active() const { return rh2_active_.unsafe_load(); }
};

}  // namespace rhtm
