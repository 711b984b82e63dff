#pragma once

// Shared pieces of the hardware-transaction substrates: configuration,
// outcome codes, the internal abort signal, and the publication seqlock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/cell.h"
#include "core/stats.h"

namespace rhtm {

/// The substrate axis: which best-effort HTM implementation backs a
/// TmUniverse. Protocols are templated over the substrate type and never
/// name a concrete kind; generic code (bench dispatch, report stamping,
/// substrate-parametrized tests) names substrates exclusively through this
/// enum and the SubstrateTraits below.
enum class SubstrateKind : std::uint8_t {
  kEmul,  ///< plain-access emulation (core/htm_emul.h)
  kSim,   ///< software-simulated HTM with real conflicts (core/htm_sim.h)
  kRtm,   ///< real hardware transactions over Intel RTM (core/htm_rtm.h)
};

/// Canonical substrate names: the --substrate= flag values and the JSON
/// reports' `substrate` field. Single source of truth for both.
[[nodiscard]] constexpr const char* to_string(SubstrateKind k) {
  switch (k) {
    case SubstrateKind::kEmul: return "emul";
    case SubstrateKind::kSim: return "sim";
    case SubstrateKind::kRtm: return "rtm";
  }
  return "?";
}

/// JSON `substrate` value for a report whose tables span more than one
/// substrate (e.g. a table following --substrate next to a pinned-sim one).
inline constexpr const char* kMixedSubstrateName = "mixed";

/// Parses a canonical substrate name. Returns false on an unknown name.
[[nodiscard]] inline bool parse_substrate_kind(const char* name, SubstrateKind* out) {
  for (const SubstrateKind k :
       {SubstrateKind::kEmul, SubstrateKind::kSim, SubstrateKind::kRtm}) {
    if (std::strcmp(name, to_string(k)) == 0) {
      *out = k;
      return true;
    }
  }
  return false;
}

/// Compile-time substrate metadata, specialized next to each substrate
/// class. `kAtomic` states whether the substrate gives multi-word commit
/// atomicity and conflict detection (HtmEmul does not — its concurrent
/// results are a modelling device, not serializable executions).
template <class H>
struct SubstrateTraits;

/// Capacity model for a best-effort hardware transaction. HtmSim counts
/// distinct cells (one 8-byte word per entry, matching the "512-entry
/// write budget" the extension benches assume); HtmEmul counts raw accesses.
struct HtmConfig {
  std::size_t max_read_set = 8192;
  std::size_t max_write_set = 512;
};

enum class HtmStatus : std::uint8_t {
  kCommitted,
  kConflict,  ///< sim only: commit-time validation failed
  kCapacity,
  kExplicit,
  kInjected,
};

struct HtmOutcome {
  HtmStatus status = HtmStatus::kCommitted;
  [[nodiscard]] bool ok() const { return status == HtmStatus::kCommitted; }
};

[[nodiscard]] inline AbortCause to_abort_cause(HtmStatus s) {
  switch (s) {
    case HtmStatus::kConflict: return AbortCause::kHtmConflict;
    case HtmStatus::kCapacity: return AbortCause::kHtmCapacity;
    case HtmStatus::kExplicit: return AbortCause::kHtmExplicit;
    case HtmStatus::kInjected: return AbortCause::kInjected;
    case HtmStatus::kCommitted: break;
  }
  return AbortCause::kHtmConflict;
}

namespace detail {

/// Thrown by substrate barriers to unwind out of a doomed speculation;
/// caught by execute(). Never escapes the substrate.
struct HtmAbort {
  HtmStatus status;
};

/// Publication seqlock shared by the substrates whose software-visible
/// multi-word publications need torn-read protection: a spinlock
/// serializing publishers plus an odd/even epoch (odd = a publication is
/// in flight) that software read barriers bracket their stripe/data/stripe
/// load sequences with. Substrates that also need the lock for their own
/// commit protocol (HtmSim) drive the lock and epoch marks separately.
///
/// The lock and epoch are written three or four times per commit, so they
/// own a cache line: an embedding substrate's read-mostly members (its
/// HtmConfig, read on every simulated access) and whatever follows it (the
/// stripe table's configuration, read on every stripe mapping) would
/// otherwise take a coherence miss on each of those writes.
class alignas(kCacheLineBytes) PublicationSeqlock {
 public:
  /// One atomic batch: serialized against other publishers, epoch-marked
  /// for software readers. `entries` elements expose `.cell` and `.value`.
  template <class Entries>
  void publish(const Entries& entries) {
    lock();
    mark_in_flight();
    for (const auto& e : entries) {
      e.cell->word.store(e.value, std::memory_order_release);
    }
    mark_settled();
    unlock();
  }

  [[nodiscard]] TmWord epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Test-and-test-and-set: waiters spin on a plain load, not the exchange.
  void lock() {
    while (lock_.exchange(1, std::memory_order_acquire) != 0) {
      while (lock_.load(std::memory_order_relaxed) != 0) cpu_relax();
    }
  }
  void unlock() { lock_.store(0, std::memory_order_release); }

  /// Epoch marks for publishers already holding the lock.
  void mark_in_flight() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  void mark_settled() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<std::uint32_t> lock_{0};
  std::atomic<TmWord> epoch_{0};
};
static_assert(alignof(PublicationSeqlock) == kCacheLineBytes &&
                  sizeof(PublicationSeqlock) == kCacheLineBytes,
              "the publication seqlock must own exactly one cache line");

}  // namespace detail

}  // namespace rhtm
