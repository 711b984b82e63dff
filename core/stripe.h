#pragma once

// Stripe (ownership-record) table: maps every address to a versioned-lock
// word, plus the RH2 visible-reader mask array. Geometry is configurable —
// fewer stripes / coarser granules alias more addresses onto one word and
// manufacture false conflicts (ablation A2).
//
// Both arrays are halves of one zero-filled mapping (core/mapping.h) whose
// pages fault in on first touch; only RH2 touches the masks.

#include <cstddef>
#include <cstdint>

#include "core/cell.h"
#include "core/mapping.h"

namespace rhtm {

/// How RH2 readers publish themselves on the stripe read mask (paper §4.1).
enum class MaskRmw : int {
  kFetchAdd,  ///< one unconditional fetch-add per publish/unpublish
  kCasLoop,   ///< compare-and-swap retry loop (the alternative it beats)
};

[[nodiscard]] inline const char* to_string(MaskRmw m) {
  switch (m) {
    case MaskRmw::kFetchAdd: return "fetch_add";
    case MaskRmw::kCasLoop: return "cas_loop";
  }
  return "?";
}

struct StripeConfig {
  unsigned log2_count = 16;       ///< 2^16 stripes = 512 KiB of version words
  unsigned granularity_log2 = 5;  ///< 32-byte granules: 4 words share a stripe
  MaskRmw mask_rmw = MaskRmw::kFetchAdd;
};

// Zero-filled pages are TmCells here, as the log's are words: one lock-free word each.
static_assert(sizeof(TmCell) == sizeof(TmWord));
static_assert(std::atomic<TmWord>::is_always_lock_free);

/// Versioned-lock word layout: bit 0 = locked, bits 63..1 = version.
class StripeTable {
 public:
  static constexpr TmWord kLockBit = 1;

  StripeTable() : StripeTable(StripeConfig{}) {}
  explicit StripeTable(const StripeConfig& cfg)
      : cfg_(cfg),
        mask_(((std::size_t{1}) << cfg.log2_count) - 1),
        map_(2 * count() * sizeof(TmCell), /*shared=*/false),
        words_(map_.at<TmCell>()),
        masks_(words_ + count()) {}

  [[nodiscard]] std::size_t count() const { return mask_ + 1; }
  [[nodiscard]] const StripeConfig& config() const { return cfg_; }

  /// Address -> stripe index. Granule-aligned addresses are multiplied by a
  /// golden-ratio constant so nearby granules spread across the table.
  [[nodiscard]] std::size_t index_of(const void* addr) const {
    const auto granule = reinterpret_cast<std::uintptr_t>(addr) >> cfg_.granularity_log2;
    return (static_cast<std::uint64_t>(granule) * 0x9e3779b97f4a7c15ull >> 32) & mask_;
  }

  [[nodiscard]] TmCell& word(std::size_t i) { return words_[i]; }
  [[nodiscard]] TmCell& read_mask(std::size_t i) { return masks_[i]; }

  /// Software prefetch of a stripe's version word. The commit loops walk
  /// exact-deduped stripe lists whose words are scattered across the table
  /// (index_of hashes), so every iteration is a fresh cache miss the
  /// hardware stride prefetcher cannot predict; issuing the next index's
  /// prefetch one iteration ahead overlaps that miss with the current
  /// check/stamp. `for_write` hints exclusive ownership (stamp loops).
  void prefetch_word(std::size_t i, bool for_write = false) const {
#if (defined(__GNUC__) || defined(__clang__)) && !defined(RHTM_NO_PREFETCH)
    for_write ? __builtin_prefetch(words_ + i, 1, 3) : __builtin_prefetch(words_ + i, 0, 3);
#else
    (void)i;
    (void)for_write;
#endif
  }

  static constexpr TmWord version_of(TmWord w) { return w >> 1; }
  static constexpr bool is_locked(TmWord w) { return (w & kLockBit) != 0; }
  static constexpr TmWord make_word(TmWord version) { return version << 1; }
  /// A hardware commit's stripe stamp. Durable commits stamp it locked:
  /// the values published at _xend stay unreadable until the persist step
  /// has run and unlock_to() releases them.
  static constexpr TmWord commit_stamp(TmWord version, bool durable) {
    return durable ? (make_word(version) | kLockBit) : make_word(version);
  }

  /// Software commit locking (TL2 / slow-slow path). Callers acquire in
  /// ascending index order, the canonical lock order.
  bool try_lock(std::size_t i) {
    auto& cell = word(i).word;
    TmWord w = cell.load(std::memory_order_acquire);
    if (is_locked(w)) return false;
    return cell.compare_exchange_strong(w, w | kLockBit, std::memory_order_acq_rel);
  }
  void unlock_to(std::size_t i, TmWord version) {
    word(i).word.store(make_word(version), std::memory_order_release);
  }
  void unlock_restore(std::size_t i) {
    word(i).word.fetch_and(~kLockBit, std::memory_order_release);
  }

  /// RH2 visible-read publication: per-stripe reader counter.
  void publish_read(std::size_t i) { add_readers(i, 1); }
  void unpublish_read(std::size_t i) { add_readers(i, ~TmWord{0}); }  // adds -1
  [[nodiscard]] TmWord readers(std::size_t i) const {
    return masks_[i].word.load(std::memory_order_acquire);
  }

 private:
  void add_readers(std::size_t i, TmWord delta) {
    auto& m = masks_[i].word;
    if (cfg_.mask_rmw == MaskRmw::kFetchAdd) {
      m.fetch_add(delta, std::memory_order_acq_rel);
    } else {
      TmWord cur = m.load(std::memory_order_acquire);
      while (!m.compare_exchange_weak(cur, cur + delta, std::memory_order_acq_rel)) {
      }
    }
  }

  StripeConfig cfg_;
  std::size_t mask_;
  ZeroMapping map_;
  TmCell* words_;  ///< count() version words: the mapping's first half
  TmCell* masks_;  ///< count() RH2 read masks: its second half
};

}  // namespace rhtm
