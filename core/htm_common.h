#pragma once

// Shared pieces of the hardware-transaction substrates: configuration,
// outcome codes, the internal abort signal, and the line-set used for
// capacity accounting.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

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

/// Capacity model for a best-effort hardware transaction. Budgets count
/// distinct *lines* (addresses >> line_shift); the default line_shift of 3
/// makes one 8-byte word per entry, matching the "512-entry write budget"
/// the extension benches assume.
struct HtmConfig {
  std::size_t max_read_set = 8192;
  std::size_t max_write_set = 512;
  unsigned line_shift = 3;
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

/// Open-addressed set of line ids with O(1) epoch-based clearing, used for
/// exact distinct-line capacity accounting in the simulated substrate.
class LineSet {
 public:
  explicit LineSet(std::size_t initial_slots = 1024)
      : slots_(initial_slots), epochs_(initial_slots, 0) {}

  void clear() {
    ++epoch_;
    count_ = 0;
    if (epoch_ == 0) {  // epoch wrapped: hard reset
      std::fill(epochs_.begin(), epochs_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Returns true if the line was newly inserted.
  bool insert(std::uint64_t line) {
    if (count_ * 4 >= slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(line * 0x9e3779b97f4a7c15ull >> 32) & mask;
    while (epochs_[i] == epoch_) {
      if (slots_[i] == line) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = line;
    epochs_[i] = epoch_;
    ++count_;
    return true;
  }

  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  void grow() {
    std::vector<std::uint64_t> old_slots = std::move(slots_);
    std::vector<std::uint32_t> old_epochs = std::move(epochs_);
    slots_.assign(old_slots.size() * 2, 0);
    epochs_.assign(old_slots.size() * 2, 0);
    const std::uint32_t live = epoch_;
    epoch_ = 1;
    count_ = 0;
    const std::uint32_t fresh = epoch_;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_epochs[i] == live) {
        // re-insert without growth recursion (load factor halved)
        const std::size_t mask = slots_.size() - 1;
        std::size_t j =
            static_cast<std::size_t>(old_slots[i] * 0x9e3779b97f4a7c15ull >> 32) & mask;
        while (epochs_[j] == fresh) j = (j + 1) & mask;
        slots_[j] = old_slots[i];
        epochs_[j] = fresh;
        ++count_;
      }
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint32_t> epochs_;
  std::uint32_t epoch_ = 1;
  std::size_t count_ = 0;
};

inline std::uint64_t line_of(const void* addr, unsigned line_shift) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr)) >> line_shift;
}

/// Publication seqlock shared by the substrates whose software-visible
/// multi-word publications need torn-read protection: a spinlock
/// serializing publishers plus an odd/even epoch (odd = a publication is
/// in flight) that software read barriers bracket their stripe/data/stripe
/// load sequences with. Substrates that also need the lock for their own
/// commit protocol (HtmSim) drive the lock and epoch marks separately.
class PublicationSeqlock {
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

}  // namespace detail

}  // namespace rhtm
