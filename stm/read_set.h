#pragma once

// TL2-style read-set: the distinct stripe indices a software transaction
// must revalidate at commit. Reads are post-validated at access time, so
// commit-time validation only has to re-check the stripes — it never
// touches the data words, which is what gives the RH1 reduced commit its
// ~4x capacity headroom over the fast path (one stripe word per granule
// of data).
//
// The set is EXACTLY deduplicated (a thin wrapper over StripeSet, the
// stripe-keyed IndexedSet): each read stripe is logged once no matter how
// often the transaction re-reads it, and an entry is just the 4-byte
// stripe index. Both properties keep
// the reduced hardware commit's footprint proportional to the *distinct*
// stripe count — zipfian/hashtable re-read patterns used to log the same
// hot stripe hundreds of times (and carry a dead observed-version word
// per entry), overflowing the commit transaction's budget with work that
// validates nothing: validate() re-checks the *current* stripe word
// against the transaction's read-version, so only membership matters.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"
#include "core/indexed_set.h"
#include "core/stripe.h"

namespace rhtm {

class ReadSet {
 public:
  void clear() { seen_.clear(); }

  [[nodiscard]] bool empty() const { return seen_.empty(); }
  [[nodiscard]] std::size_t size() const { return seen_.size(); }

  /// The distinct read stripes, in first-read order.
  [[nodiscard]] const std::vector<std::uint32_t>& stripes() const { return seen_.items(); }

  /// Record a validated read of `stripe`. Exact dedup: re-reads are free.
  void add(std::uint32_t stripe) { seen_.insert(stripe); }

  /// Software revalidation: every read stripe must be unlocked and still at
  /// a version no newer than the transaction's read-version `rv`. A stripe
  /// locked by the committing transaction itself is admitted via
  /// `self_locked(stripe)`. Entries are distinct, so each stripe word is
  /// visited exactly once.
  template <class SelfLocked>
  [[nodiscard]] bool validate(StripeTable& stripes, TmWord rv, SelfLocked&& self_locked) const {
    for (const std::uint32_t s : seen_.items()) {
      const TmWord w = stripes.word(s).word.load(std::memory_order_acquire);
      if (StripeTable::is_locked(w) && !self_locked(s)) return false;
      if (StripeTable::version_of(w) > rv) return false;
    }
    return true;
  }

  [[nodiscard]] bool validate(StripeTable& stripes, TmWord rv) const {
    return validate(stripes, rv, [](std::uint32_t) { return false; });
  }

 private:
  StripeSet seen_;
};

}  // namespace rhtm
