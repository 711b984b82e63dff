#pragma once

// IndexedSet — the one per-transaction bookkeeping table: an insertion-
// ordered list of distinct keys behind an open-addressed index. Every key
// gets a dense index (its position in items()), so a caller keeps any
// per-key payload in a parallel vector. One linear probe per insert/find
// (O(1) amortized, growing at 3/4 load) and an O(1) clear via an epoch
// bump: a slot is live only while its stamp equals the current epoch, so no
// per-transaction sweep ever touches the table.
//
// Users, keyed by stripe index or by cell address:
//   * StripeSet (below): ReadSet's distinct read stripes, WriteSet's
//     written-stripe view, the fast paths' stamped stripes and RH2's
//     published read masks;
//   * WriteSet's entry index (cell -> position in its redo log);
//   * HtmSim's read and write sets (cell -> first value seen / buffered
//     value), whose sizes are the simulated capacity.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace rhtm {

template <class Key>
class IndexedSet {
  static_assert(std::is_integral_v<Key> || std::is_pointer_v<Key>,
                "IndexedSet keys are integers or pointers");

 public:
  struct Inserted {
    std::uint32_t index;  ///< the key's position in items()
    bool fresh;           ///< true when the key was not yet a member
  };

  IndexedSet() : slots_(kInitialSlots) {}

  /// Forget every member. O(1): bumps the epoch; slots invalidate lazily.
  void clear() {
    items_.clear();
    if (++epoch_ == 0) {  // epoch wrapped: hard reset of every stamp
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Distinct members in first-insertion order; a member's index is its
  /// position here.
  [[nodiscard]] const std::vector<Key>& items() const { return items_; }

  Inserted insert(Key key) {
    if (items_.size() * 4 >= (mask_ + 1) * 3) grow();
    std::size_t i = hash(key) & mask_;
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == key) return {slots_[i].index, false};
      i = (i + 1) & mask_;
    }
    const auto index = static_cast<std::uint32_t>(items_.size());
    slots_[i] = Slot{key, index, epoch_};
    items_.push_back(key);
    return {index, true};
  }

  [[nodiscard]] std::optional<std::uint32_t> find(Key key) const {
    std::size_t i = hash(key) & mask_;
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == key) return slots_[i].index;
      i = (i + 1) & mask_;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool contains(Key key) const { return find(key).has_value(); }

  /// Never 0, changes on every clear() and survives growth, so it can tag
  /// per-transaction state kept outside the table (WriteSet's bloom words).
  /// After a wrap (one clear in 2^32) it restarts at 1 and old tags may
  /// read as live again.
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  struct Slot {
    Key key{};
    std::uint32_t index = 0;
    std::uint32_t epoch = 0;  ///< live iff equal to the table's epoch_
  };

  static std::size_t hash(Key key) {
    // Multiplicative mixing keeps runs of consecutive stripe indices and
    // adjacent cells (8-byte aligned, hence the shift) on separate probe
    // sequences.
    std::uint64_t k = 0;
    if constexpr (std::is_pointer_v<Key>) {
      k = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key)) >> 3;
    } else {
      k = static_cast<std::uint64_t>(key) + 1;
    }
    return static_cast<std::size_t>(k * 0x9e3779b97f4a7c15ull >> 32);
  }

  /// Doubles the slot array and re-places every member at its own index;
  /// the epoch carries over, so stamps outside the table (WriteSet's bloom
  /// words) stay valid. Kept out of line so insert() stays small enough to
  /// inline into the barriers.
  [[gnu::noinline]] void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (std::uint32_t index = 0; index < items_.size(); ++index) {
      std::size_t i = hash(items_[index]) & mask_;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      slots_[i] = Slot{items_[index], index, epoch_};
    }
  }

  std::vector<Key> items_;
  std::vector<Slot> slots_;
  std::size_t mask_ = kInitialSlots - 1;  ///< slots_.size() - 1; the size is a power of two
  std::uint32_t epoch_ = 1;
};

/// Exact membership over stripe indices: the commit pipeline's dedup set.
using StripeSet = IndexedSet<std::uint32_t>;

}  // namespace rhtm
