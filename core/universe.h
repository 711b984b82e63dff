#pragma once

// TmUniverse<H> — the shared world every protocol instance runs against:
// the HTM substrate instance, the striped version-word store, the global
// version clock, and (when configured durable) the simulated persistent
// domain every software write-back funnels through. Benches construct one
// universe per figure (or per protocol) and instantiate protocols over it.

#include <memory>

#include "core/clock.h"
#include "core/contention.h"
#include "core/htm_common.h"
#include "core/pmem.h"
#include "core/stripe.h"
#include "core/trace.h"

namespace rhtm {

struct UniverseConfig {
  HtmConfig htm;
  /// The one flat stripe table's geometry (core/stripe.h); its pages fault
  /// in on first touch, so building a universe writes none of them.
  StripeConfig stripe;
  /// Clock rule (core/clock.h). GV6 keeps the clock store out of every
  /// hardware commit; software readers extend their read version past its
  /// clock+1 stamps (core/tl2.h). kGv1 is the fetch-add clock that every
  /// hardware commit stores.
  GvMode gv_mode = GvMode::kGv6;
  /// Contention management: retry/backoff/escalation policy applied by every
  /// protocol ThreadCtx constructed over this universe (see core/contention.h).
  /// kFixed is bit-compatible with the historical coins and budgets.
  CmConfig cm;
  /// Durability mode: every committing write-back is redo-logged, fenced and
  /// applied to the PersistentDomain's durable image (see core/pmem.h).
  /// Requires a substrate with real commit atomicity — the durable hardware
  /// commits stamp their write stripes locked inside the transaction, and a
  /// substrate that cannot roll stores back (HtmEmul) would abandon those
  /// locks on abort.
  bool durable = false;
  PmemConfig pmem;
  /// Event tracing: when non-null, every protocol ThreadCtx constructed
  /// over this universe acquires a TraceRing from this tracer and records
  /// its full transaction lifecycle (core/trace.h; --trace bench flag).
  /// Non-owning — the tracer outlives every universe built over it. Null
  /// (the default) disables tracing: the per-event cost collapses to one
  /// predictable null-check branch.
  trace::Tracer* tracer = nullptr;
};

namespace detail {
/// hw_commit_stamp()'s check for commits that vet their stripes elsewhere.
inline constexpr auto kNoStripeCheck = [](auto&, std::uint32_t) {};
}  // namespace detail

template <class H>
class TmUniverse {
 public:
  TmUniverse() : TmUniverse(UniverseConfig{}) {}
  explicit TmUniverse(const UniverseConfig& cfg)
      : cfg_(cfg), htm_(cfg.htm), stripes_(cfg.stripe), clock_(cfg.gv_mode) {
    if (cfg_.durable) pmem_ = std::make_unique<PersistentDomain>(cfg_.pmem);
  }

  TmUniverse(const TmUniverse&) = delete;
  TmUniverse& operator=(const TmUniverse&) = delete;

  [[nodiscard]] const UniverseConfig& config() const { return cfg_; }
  [[nodiscard]] H& htm() { return htm_; }
  [[nodiscard]] StripeTable& stripes() { return stripes_; }
  [[nodiscard]] GlobalVersionClock& clock() { return clock_; }

  /// True when this universe persists commits (cfg.durable). Non-durable
  /// universes never construct a PersistentDomain and emit zero fences.
  [[nodiscard]] bool durable() const { return pmem_ != nullptr; }
  /// The persistent domain; only valid when durable().
  [[nodiscard]] PersistentDomain& pmem() { return *pmem_; }

  /// The commit point of every hardware transaction that stamps stripes: a
  /// fresh version read from the clock inside the transaction (so it is
  /// newer than any concurrent software reader's read-version; stored only
  /// under GV1/GV4 — GV6 reads the clock but never writes it), then per
  /// distinct written stripe `check(t, s)` and its stamp. Durable stamps
  /// carry the lock bit: the values published at _xend stay unreadable
  /// until hw_committed() has persisted them. Returns the version.
  template <class Tx, class Stripes, class Check>
  TmWord hw_commit_stamp(Tx& t, const Stripes& stripes, Check&& check) {
    const TmWord wv = t.load(clock_.cell()) + 1;
    if (clock_.hw_writes_clock()) t.store(clock_.cell(), wv);
    const TmWord stamp = StripeTable::commit_stamp(wv, durable());
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      // Stripe indices are hashed: hide the next stamp's miss behind this one.
      if (i + 1 < stripes.size()) stripes_.prefetch_word(stripes[i + 1], /*for_write=*/true);
      check(t, stripes[i]);
      t.store(stripes_.word(stripes[i]), stamp);
    }
    return wv;
  }

  /// Post-_xend step of a hw_commit_stamp() commit that published
  /// `entries`. Durable: the transaction published its values and LOCKED
  /// stamps atomically at _xend, and while the locks are held no reader —
  /// the durable fast path checks the lock bit, software reads validate
  /// it — can consume the new state. The persist step runs log, mark (the
  /// durability point) and apply, then the locks release to `wv`, so
  /// marker order respects stripe-conflict serialization. A crash anywhere
  /// in this sequence abandons only in-memory locks (they die with the
  /// process); recovery replays or discards from the log.
  template <class Entries, class Stripes>
  void hw_committed(const Entries& entries, const Stripes& stripes, TmWord wv, const char* path,
                    trace::TraceRing* ring) {
    clock_.note_hw_commit();
    if (!durable()) return;
    pmem_->persist(entries, path, ring, [] {});
    for (const std::uint32_t s : stripes) stripes_.unlock_to(s, wv);
  }

  /// A software commit's write-back: `entries` published as one atomic
  /// batch, wrapped in the persist step when durable. The caller holds its
  /// commit locks across the call.
  template <class Entries>
  void publish_writes(const Entries& entries, const char* path, trace::TraceRing* ring) {
    const auto publish = [&] { htm_.nontx_publish(entries); };
    if (durable()) {
      pmem_->persist(entries, path, ring, publish);
    } else {
      publish();
    }
  }

  /// A software abort's clock rule (GV6 advances the clock cell, which
  /// hardware transactions read), atomic with respect to hardware commits.
  void clock_on_abort() {
    if (clock_.hw_writes_clock()) {
      // GV1/GV4 keep no abort rule, except on a substrate whose hardware
      // commits are plain accesses (emul): two racing commits can leave
      // the clock below a stamp one of them wrote, and once the writers
      // stop a software reader would fail validation forever. Advancing
      // the clock restores its progress.
      if constexpr (!SubstrateTraits<H>::kAtomic) (void)clock_.next();
      return;
    }
    htm_.nontx_atomic([&] { clock_.on_abort(); });
  }

  /// A fresh per-thread trace ring, or null when tracing is off (or the
  /// tracer's ring budget is exhausted — callers treat both as "no trace").
  [[nodiscard]] trace::TraceRing* acquire_trace_ring() const {
    return cfg_.tracer != nullptr ? cfg_.tracer->acquire_ring() : nullptr;
  }

 private:
  UniverseConfig cfg_;
  H htm_;
  StripeTable stripes_;
  GlobalVersionClock clock_;
  std::unique_ptr<PersistentDomain> pmem_;
};

}  // namespace rhtm
