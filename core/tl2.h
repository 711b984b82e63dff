#pragma once

// TL2 — the software baseline and the shared STM machinery (read/write
// barriers and the all-software stripe-locked commit). The figure benches
// use Tl2<H> both as the "TL2" series and as the calibration run whose
// abort ratio is injected into the hardware-mode series. StandardHytm's
// software fallback and PhasedTm's software phase reuse detail::tl2_run.
// The retry loop itself is core/attempt.h's software_attempts.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/attempt.h"
#include "core/indexed_set.h"
#include "core/universe.h"
#include "stm/read_set.h"
#include "stm/write_set.h"

namespace rhtm {

namespace detail {

/// LSA's read-version extension (Riegel, Felber & Fetzer, DISC 2006): the
/// one place the clock rule decides what a stripe stamped at `stamp` > `rv`
/// means. Under a clock that hardware commits store (GV1/GV4) it is a
/// conflict: throws kStmValidation. Under GV6 it admits the stamp by
/// moving `rv` forward instead: the clock is lifted to cover the stamp (a
/// hardware commit stamps at clock+1 without storing it), the new read
/// version sampled, and the read set revalidated against the OLD `rv` —
/// any commit that overwrote one of those reads stamped above it. Throws
/// kStmValidation when a read is stale.
template <class H>
inline void extend_read_version(TmUniverse<H>& u, TmWord stamp, TmWord& rv, const ReadSet& rs) {
  GlobalVersionClock& clock = u.clock();
  if (clock.hw_writes_clock()) throw StmAbort{AbortCause::kStmValidation};
  if (clock.read() < stamp) u.htm().nontx_atomic([&] { clock.lift(stamp); });
  const TmWord now = clock.read();
  if (!rs.validate(u.stripes(), rv)) throw StmAbort{AbortCause::kStmValidation};
  rv = now;
}

/// The post-validated software read (the TL2 read barrier's slow half,
/// shared by the TL2 and RH2 handles): stripe word, data word, stripe word
/// again — bracketed by the substrate's publication epoch so a hardware
/// commit's multi-word write-back (which software readers do not otherwise
/// synchronize with) can never interleave a torn view. Records the read in
/// `rs` on success; throws StmAbort on a locked or changing stripe, and on
/// a too-new one unless `rv` can be extended past it.
template <class H>
inline TmWord stripe_validated_read(TmUniverse<H>& u, const TmCell& c, std::size_t s, TmWord& rv,
                                    ReadSet& rs) {
  StripeTable& st = u.stripes();
  for (;;) {
    const TmWord e1 = u.htm().publication_epoch();
    const TmWord w1 = st.word(s).word.load(std::memory_order_acquire);
    const TmWord val = c.word.load(std::memory_order_acquire);
    const TmWord w2 = st.word(s).word.load(std::memory_order_acquire);
    const TmWord e2 = u.htm().publication_epoch();
    if ((e1 & 1) != 0 || e1 != e2) {  // a publication overlapped: re-read
      cpu_relax();
      continue;
    }
    if (StripeTable::is_locked(w1)) throw StmAbort{AbortCause::kStmLocked};
    if (w1 != w2) throw StmAbort{AbortCause::kStmValidation};
    if (StripeTable::version_of(w1) > rv) {
      extend_read_version(u, StripeTable::version_of(w1), rv, rs);
      continue;
    }
    rs.add(static_cast<std::uint32_t>(s));
    return val;
  }
}

/// TL2 access barriers over a universe. Read: bloom-checked write-set
/// lookup, then stripe-validated post-read. Write: write-set insert. `rv`
/// is the read version, moved forward by extensions; the commit validates
/// against its final value.
template <class H>
struct Tl2Handle {
  TmUniverse<H>& u;
  ReadSet& rs;
  WriteSet& ws;
  TmWord rv;

  TmWord load(const TmCell& c) {
    if (const WriteEntry* e = ws.find(c)) return e->value;
    return stripe_validated_read(u, c, u.stripes().index_of(&c), rv, rs);
  }

  void store(TmCell& c, TmWord v) {
    ws.put(c, v, static_cast<std::uint32_t>(u.stripes().index_of(&c)));
  }
};

/// The all-software TL2 commit: lock the write stripes (deduplicated and
/// sorted), fetch a write version, revalidate the read-set, write back,
/// release to the new version. Throws StmAbort with locks released on any
/// failure.
///
/// The lock list is the write-set's exact deduped stripe view, sorted into
/// canonical order — every committer acquires in the same global order, so
/// two overlapping commits cannot each hold half of the other's stripes
/// and livelock. "Is this stripe mine?" during read validation is an O(1)
/// `wrote_stripe` probe; the old per-entry linear scan made large commits
/// O(W^2).
///
/// `self_read_masks`, when non-null, is the set of stripes on which the
/// committing transaction itself published an RH2 read mask; the commit
/// then refuses to overwrite a stripe that carries any *other* visible
/// reader (the RH2 slow-slow path's obligation).
template <class H>
inline void tl2_software_commit(TmUniverse<H>& u, ReadSet& rs, WriteSet& ws, TmWord rv,
                                std::vector<std::uint32_t>& locked,
                                const StripeSet* self_read_masks = nullptr,
                                trace::TraceRing* ring = nullptr) {
  if (ws.empty()) return;  // read-only: post-validated reads suffice
  StripeTable& st = u.stripes();
  locked = ws.write_stripes();  // deduped; assign reuses the scratch capacity
  std::sort(locked.begin(), locked.end());
  std::size_t acquired = 0;
  const auto release_restore = [&] {
    for (std::size_t i = 0; i < acquired; ++i) st.unlock_restore(locked[i]);
  };
  for (; acquired < locked.size(); ++acquired) {
    // The sorted stripe indices hash to scattered table words; prefetch the
    // next lock word (exclusive) so its miss overlaps this CAS.
    if (acquired + 1 < locked.size()) {
      st.prefetch_word(locked[acquired + 1], /*for_write=*/true);
    }
    if (!u.htm().nontx_atomic([&] { return st.try_lock(locked[acquired]); })) {
      release_restore();
      throw StmAbort{AbortCause::kStmLocked};
    }
  }
  if (self_read_masks != nullptr) {
    for (const std::uint32_t s : locked) {
      // publish_once guarantees at most one own mask per stripe.
      const TmWord self = self_read_masks->contains(s) ? 1 : 0;
      if (st.readers(s) > self) {
        release_restore();
        throw StmAbort{AbortCause::kStmLocked};
      }
    }
  }
  const TmWord wv = u.htm().nontx_atomic([&] { return u.clock().next(); });
  const auto is_self = [&](std::uint32_t s) { return ws.wrote_stripe(s); };
  if (!rs.validate(st, rv, is_self)) {
    release_restore();
    throw StmAbort{AbortCause::kStmValidation};
  }
  // Stripe locks held across the whole write-back: in durable mode the
  // commit marker lands in the redo log in stripe-lock serialization
  // order, and no reader observes the new values (in memory or in the
  // image) before they are durably marked. RH2's slow-slow escalation
  // funnels through here too — same path, same kill points.
  u.publish_writes(ws.entries(), pmem::kPathTl2, ring);
  for (const std::uint32_t s : locked) st.unlock_to(s, wv);
  u.clock().publish_home();  // cached-clock lazy propagation; no-op otherwise
}

/// Full TL2 transaction: software attempts until the body runs and
/// commits. For pure software paths only the ContentionManager's backoff
/// shape applies; escalation is a no-op. Callers that escalate into this
/// loop have already emitted their tx_begin.
template <class H, class Body>
inline void tl2_run(TmUniverse<H>& u, TxContext& ctx, ReadSet& rs, WriteSet& ws,
                    std::vector<std::uint32_t>& lock_scratch, Body& body) {
  const auto aborted = [&] { u.clock_on_abort(ctx.ring); };
  software_attempts(ctx, ExecPath::kStm, aborted, [&](ExecPath&) {
    rs.clear();
    ws.clear();
    Tl2Handle<H> h{u, rs, ws, u.clock().read()};
    body(h);
    tl2_software_commit(u, rs, ws, h.rv, lock_scratch, nullptr, ctx.ring);
    return ExecPath::kStm;
  });
}

}  // namespace detail

template <class H>
class Tl2 {
 public:
  struct Config {};

  class ThreadCtx : public detail::TxContext {
   public:
    explicit ThreadCtx(Tl2& tm) : detail::TxContext(tm.u_, ContentionManager::Limits{}) {}

   private:
    friend class Tl2;
    ReadSet rs_;
    WriteSet ws_;
    std::vector<std::uint32_t> lock_scratch_;
  };

  explicit Tl2(TmUniverse<H>& u, Config = {}) : u_(u) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] {
      detail::tl2_run(u_, ctx, ctx.rs_, ctx.ws_, ctx.lock_scratch_, body);
    });
  }

 private:
  TmUniverse<H>& u_;
};

}  // namespace rhtm
