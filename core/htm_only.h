#pragma once

// HtmOnly — the paper's "HTM" series: every transaction is one hardware
// transaction with completely uninstrumented accesses. The only concession
// to liveness is a global-seqlock fallback for transactions that
// deterministically exceed the hardware budget (classic lock elision);
// hardware attempts subscribe to the fallback lock so the two are mutually
// atomic on the simulated substrate.
//
// With a bounded `max_hw_attempts` the same protocol is the TATAS
// lock-elision baseline (bench series "TATAS-Elide": 8 attempts, 2
// capacity retries): one global test-and-test-and-set lock protecting
// every transaction, elided by hardware. It has no STM, no stripe metadata
// and no concurrency in the fallback, so its throughput isolates what the
// ContentionManager's retry decisions are worth before any TM machinery is
// added.
//
// HtmOnly is NOT durable-capable: with zero instrumentation there is
// nowhere to capture a redo log, so it ignores TmUniverse durability mode
// (the durable scenarios exclude it). The durable hardware-commit designs
// live in core/rh1.h and core/ext_hybrids.h.

#include <cstdint>

#include "core/attempt.h"
#include "core/universe.h"

namespace rhtm {

template <class H>
class HtmOnly {
 public:
  struct Config {
    std::uint32_t inject_abort_bp = 0;
    unsigned max_hw_attempts = 0;   ///< hardware attempts before the lock; 0 = unbounded
    unsigned capacity_retries = 4;  ///< capacity aborts before the lock fallback
  };

  class ThreadCtx : public detail::HwTxContext<H> {
   public:
    explicit ThreadCtx(HtmOnly& tm)
        : detail::HwTxContext<H>(tm.u_, ContentionManager::Limits{
                                            0, tm.cfg_.max_hw_attempts,
                                            tm.cfg_.capacity_retries}) {}
  };

  explicit HtmOnly(TmUniverse<H>& u, Config cfg = {}) : u_(u), cfg_(cfg),
                                                        injector_(cfg.inject_abort_bp) {}

  template <class Body>
  void atomically(ThreadCtx& ctx, Body&& body) {
    detail::transaction(ctx, [&] {
      // Fixed policy gives up only on deterministic overflow (or an
      // exhausted attempt budget); adaptive may also retire a hopeless
      // conflict streak to the lock.
      if (!ctx.cm.start_in_software() &&
          detail::hardware_attempts(
              ctx, u_.htm(), injector_, ExecPath::kHtm, [] { return true; },
              [&](typename H::Tx& t) {
                fallback_.subscribe(t);
                detail::HwPlainHandle<typename H::Tx> h{t};
                body(h);
              },
              detail::kNoop)) {
        return;
      }
      detail::run_under_lock(ctx, fallback_, u_.htm(), body);
    });
  }

 private:
  TmUniverse<H>& u_;
  Config cfg_;
  AbortInjector injector_;
  detail::FallbackLock fallback_;
};

}  // namespace rhtm
