#pragma once

// The transaction shell every protocol shares. The protocols differ only
// in how they instrument accesses and how they commit; the retry shell
// around them is one shape — count the attempt, inject, run, count the
// commit or the abort, ask the ContentionManager whether to give up — and
// it lives here once: the per-thread context base, the hardware-attempt
// loop, the software-attempt loop and the lock-fallback tail. A protocol
// file keeps its access handles and its commit. Templates and lambdas
// only: no std::function and no virtual call on the attempt path.

#include <cstdint>

#include "core/contention.h"
#include "core/stats.h"
#include "core/trace.h"
#include "core/universe.h"

namespace rhtm {

namespace detail {

/// Thrown by software-path barriers/commits; caught by software_attempts.
struct StmAbort {
  AbortCause cause;
};

/// Per-thread context base: counters, retry policy and trace ring. The
/// purely software protocol (TL2) derives from this directly.
struct TxContext {
  template <class U>
  TxContext(U& u, const ContentionManager::Limits& limits)
      : cm(u.config().cm, limits), ring(u.acquire_trace_ring()) {
    cm.set_trace(ring);
  }

  TxStats stats;
  ContentionManager cm;
  trace::TraceRing* ring;  ///< null when tracing is off
};

/// Context base of the protocols that speculate in hardware: adds the
/// substrate transaction and the per-thread RNG (injection, Mixed-N coin).
template <class H>
struct HwTxContext : TxContext {
  HwTxContext(TmUniverse<H>& u, const ContentionManager::Limits& limits)
      : TxContext(u, limits), tx(u.htm()), rng(next_ctx_seed()) {}

  typename H::Tx tx;
  Xoshiro256 rng;
};

/// One atomically() call: the trace's tx_begin, then the protocol's tier
/// chain `run`.
template <class Run>
inline void transaction(TxContext& ctx, Run&& run) {
  trace::tx_begin(ctx.ring);
  run();
}

/// Counts and traces one abort. The loops below use it for every attempt;
/// RH1's hardware commits use it for the capacity overflow that moves a
/// transaction down a tier within the same attempt.
inline void record_abort(TxContext& ctx, AbortCause cause) {
  ctx.stats.count_abort(cause);
  trace::abort(ctx.ring, cause);
}

inline void record_commit(TxContext& ctx, ExecPath path) {
  ctx.stats.count_commit(path);
  trace::commit(ctx.ring, path);
}

/// Loop hook for protocols with nothing to do at that point.
inline constexpr auto kNoop = [] {};

/// The hardware-attempt loop. Per attempt: `ready()` runs outside the
/// transaction (reset per-attempt capture; returning false gives up on
/// hardware before the attempt is counted), then `body(tx)` runs inside
/// one substrate transaction (poisoned first when the injector fires). On
/// commit, `committed()` runs the protocol's post-commit work before the
/// commit is counted. Returns true on commit, false once the
/// ContentionManager gives up on hardware (the caller escalates).
template <class H, class Ready, class Body, class Committed>
[[nodiscard]] bool hardware_attempts(HwTxContext<H>& ctx, H& htm, const AbortInjector& injector,
                                     ExecPath path, Ready&& ready, Body&& body,
                                     Committed&& committed) {
  for (;;) {
    if (!ready()) return false;
    ctx.stats.count_attempt(path);
    trace::attempt(ctx.ring, path);
    const bool poison = injector.fire(ctx.rng);
    const HtmOutcome out = htm.execute(ctx.tx, [&](typename H::Tx& t) {
      if (poison) t.poison();
      body(t);
    });
    if (out.ok()) {
      committed();
      record_commit(ctx, path);
      ctx.cm.on_hardware_commit();
      return true;
    }
    const AbortCause cause = to_abort_cause(out.status);
    record_abort(ctx, cause);
    if (ctx.cm.give_up_hardware(cause, ctx.rng)) return false;
    ctx.cm.backoff_hardware();
  }
}

/// What a software attempt returns when it moved to another tier without
/// aborting (RH1's reduced commit overflowing into RH2): the loop counts a
/// fresh attempt on the updated path, with no abort and no backoff.
inline constexpr ExecPath kRetryOnNewPath = ExecPath::kCount;

/// The software-attempt loop. `attempt(path)` runs one execution of the
/// body on `path` and returns the tier that committed it (or
/// kRetryOnNewPath after updating `path`); a StmAbort from it is counted,
/// handed to `aborted()` (the clock's abort rule, for protocols with a
/// version clock) and backed off before the retry.
template <class Aborted, class Attempt>
inline void software_attempts(TxContext& ctx, ExecPath path, Aborted&& aborted,
                              Attempt&& attempt) {
  ctx.cm.begin_software();
  for (;;) {
    ctx.stats.count_attempt(path);
    trace::attempt(ctx.ring, path);
    ExecPath committed = kRetryOnNewPath;
    try {
      committed = attempt(path);
    } catch (const StmAbort& a) {
      record_abort(ctx, a.cause);
      aborted();
      ctx.cm.backoff_software();
      continue;
    }
    if (committed == kRetryOnNewPath) continue;
    record_commit(ctx, committed);
    return;
  }
}

/// Seqlock used as the non-speculative fallback: odd = held. Acquire is
/// test-and-test-and-set: spin on plain loads (shared line, no coherence
/// storm) and attempt the RMW only when the lock reads free.
class FallbackLock {
 public:
  template <class H>
  void acquire(H& htm) {
    for (;;) {
      TmWord s = cell_.word.load(std::memory_order_acquire);
      if ((s & 1) == 0 && htm.nontx_atomic([&] {
            return cell_.word.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel);
          })) {
        return;
      }
      cpu_relax();
    }
  }
  void release() { cell_.word.fetch_add(1, std::memory_order_acq_rel); }

  /// Hardware-side subscription: read the lock word inside the transaction
  /// and bail if it is held. Any later acquire/release changes the word, so
  /// an acquisition conflicts every subscribed transaction out.
  template <class Tx>
  void subscribe(Tx& t) {
    if ((t.load(cell_) & 1) != 0) t.abort_explicit();
  }

 private:
  TmCell cell_;
};

/// Uninstrumented transactional accessors over a hardware transaction.
template <class Tx>
struct HwPlainHandle {
  Tx& t;
  TmWord load(const TmCell& c) { return t.load(c); }
  void store(TmCell& c, TmWord v) { t.store(c, v); }
};

/// Plain accessors for code running under the fallback lock.
template <class H>
struct NonSpecHandle {
  H& htm;
  TmWord load(const TmCell& c) { return htm.nontx_load(c); }
  void store(TmCell& c, TmWord v) { htm.nontx_store(c, v); }
};

/// The non-speculative tail: run the body under the fallback lock and count
/// it as a hardware-tier commit, as the lock-elision protocols always have.
template <class H, class Body>
inline void run_under_lock(TxContext& ctx, FallbackLock& lock, H& htm, Body& body) {
  trace::fallback_lock(ctx.ring);
  lock.acquire(htm);
  NonSpecHandle<H> h{htm};
  body(h);
  lock.release();
  record_commit(ctx, ExecPath::kHtm);
}

}  // namespace detail

}  // namespace rhtm
