#pragma once

// TL2-style redo write-set: append-only entry log with a bloom filter for
// fast negative read-after-write lookups and an exact cell index
// (IndexedSet: cell -> entry position) for positive ones. The bloom filter
// admits false positives (resolved by the exact index) but never false
// negatives — a lookup of a written cell always finds its latest value.
//
// The filter is *blocked* and *size-adaptive*: an array of epoch-tagged
// 64-bit words (32 filter bits + a 32-bit epoch tag each) that doubles with
// the entry count, so it keeps a low false-positive rate at any write-set
// size. Its predecessor was one global 64-bit word, which saturated past
// ~40 distinct cells and silently degraded every read-after-write miss to
// a full probe loop. Each lookup touches exactly one filter word (one
// cache line), and clearing stays O(1): the tags are the index's epoch.
//
// The set also maintains the deduplicated stripe view of the log
// (`write_stripes()` / `wrote_stripe()`): the unique stripes the commit
// paths lock (TL2 / slow-slow, sorted) or stamp (RH1 reduced / RH2
// hardware commits) — each stripe exactly once, however many entries
// share it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"
#include "core/indexed_set.h"

namespace rhtm {

struct WriteEntry {
  TmCell* cell;
  TmWord value;
  std::uint32_t stripe;
};

class WriteSet {
 public:
  WriteSet() : bloom_(kInitialBloomWords, 0) {}

  void clear() {
    entries_.clear();
    index_.clear();
    stripes_.clear();
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<WriteEntry>& entries() const { return entries_; }
  [[nodiscard]] std::vector<WriteEntry>& entries() { return entries_; }

  /// The distinct stripes of the log, in first-write order.
  [[nodiscard]] const std::vector<std::uint32_t>& write_stripes() const {
    return stripes_.items();
  }
  /// O(1): did this write-set touch `stripe`?
  [[nodiscard]] bool wrote_stripe(std::uint32_t stripe) const {
    return stripes_.contains(stripe);
  }

  /// Insert or overwrite the buffered value for `cell`.
  void put(TmCell& cell, TmWord value, std::uint32_t stripe) {
    const auto [index, fresh] = index_.insert(&cell);
    if (!fresh) {
      entries_[index].value = value;
      return;
    }
    if (entries_.size() >= bloom_.size() * kCellsPerBloomWord) grow_bloom();
    bloom_set(hash(&cell));
    entries_.push_back({&cell, value, stripe});
    stripes_.insert(stripe);
  }

  /// Latest buffered entry for `cell`, or nullptr. The bloom check makes the
  /// common miss (read of an unwritten cell) one load + AND + branch.
  [[nodiscard]] WriteEntry* find(const TmCell& cell) {
    if (!may_contain(cell)) return nullptr;
    // The index only compares keys; nothing is written through the cast.
    const auto index = index_.find(const_cast<TmCell*>(&cell));
    return index ? &entries_[*index] : nullptr;
  }

  /// The bloom verdict alone (no exact-index probe). Exposed so tests can
  /// pin the filter's false-positive rate beyond the old 64-bit saturation
  /// point; false negatives are a correctness bug at any size.
  [[nodiscard]] bool may_contain(const TmCell& cell) const {
    const std::uint64_t h = hash(&cell);
    const std::uint64_t w = bloom_[bloom_word(h)];
    const std::uint32_t bits = bloom_bits(h);
    return (w >> 32) == index_.epoch() && (static_cast<std::uint32_t>(w) & bits) == bits;
  }

 private:
  static constexpr std::size_t kInitialBloomWords = 16;
  /// At most 3 distinct cells per 32-bit filter block: >= ~10 filter bits
  /// per cell (2 set), which keeps the false-positive rate in the low
  /// percent at every size.
  static constexpr std::size_t kCellsPerBloomWord = 3;

  static std::uint64_t hash(const TmCell* cell) {
    return (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(cell)) >> 3) *
           0x9e3779b97f4a7c15ull >> 13;
  }

  // Filter-word layout: high 32 bits = epoch tag, low 32 = bloom bits. A
  // stale tag reads as an all-zero block, so clear() never sweeps the array.
  // After an epoch wrap a stale tag can read as live again; that only adds
  // false positives, which the exact index resolves.
  [[nodiscard]] std::size_t bloom_word(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> 12) & (bloom_.size() - 1);
  }
  static std::uint32_t bloom_bits(std::uint64_t h) {
    return (std::uint32_t{1} << (h & 31)) | (std::uint32_t{1} << ((h >> 5) & 31));
  }
  void bloom_set(std::uint64_t h) {
    std::uint64_t& w = bloom_[bloom_word(h)];
    const std::uint32_t epoch = index_.epoch();
    if ((w >> 32) != epoch) w = static_cast<std::uint64_t>(epoch) << 32;
    w |= bloom_bits(h);
  }

  void grow_bloom() {
    bloom_.assign(bloom_.size() * 2, 0);
    for (const WriteEntry& e : entries_) bloom_set(hash(e.cell));
  }

  std::vector<WriteEntry> entries_;
  IndexedSet<TmCell*> index_;  ///< cell -> position in entries_
  StripeSet stripes_;          ///< deduped stripe view of the log
  std::vector<std::uint64_t> bloom_;
};

}  // namespace rhtm
