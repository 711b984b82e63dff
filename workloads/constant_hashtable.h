#pragma once

// Constant hash table (paper §3.3): short transactions with highly
// distributed access. Fixed open-addressed layout built once; queries probe
// a 4-slot bucket reading stored keys transactionally, updates overwrite a
// value word in place. ~2-5 transactional reads + at most one write per op.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"

namespace rhtm {

class ConstantHashTable {
 public:
  static constexpr std::size_t kBucketWidth = 4;
  static constexpr TmWord kEmptyKey = ~TmWord{0};

  /// Stores the keys 0..n-1 (benches query keys in [0, 2n): ~50% hit rate).
  explicit ConstantHashTable(std::size_t n)
      : n_(n), bucket_mask_(bucket_count_for(n) - 1), slots_((bucket_mask_ + 1) * kBucketWidth) {
    for (auto& s : slots_) s.key.unsafe_write(kEmptyKey);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t base = bucket_of(k) * kBucketWidth;
      for (std::size_t i = 0; i < kBucketWidth; ++i) {
        Slot& s = slots_[base + i];
        if (s.key.unsafe_read() == kEmptyKey) {
          s.key.unsafe_write(static_cast<TmWord>(k));
          s.value.unsafe_write(static_cast<TmWord>(k));
          break;
        }
        // bucket full: key k is simply not stored (the shape stays constant)
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  template <class Handle>
  bool lookup(Handle& h, std::uint64_t key, TmWord* out) const {
    const std::size_t base = bucket_of(key) * kBucketWidth;
    for (std::size_t i = 0; i < kBucketWidth; ++i) {
      const Slot& s = slots_[base + i];
      const TmWord k = s.key.read(h);
      if (k == key) {
        *out = s.value.read(h);
        return true;
      }
      if (k == kEmptyKey) return false;
    }
    return false;
  }

  /// Overwrites the value for `key` if present; otherwise writes the first
  /// slot of the bucket (a constant-shape "touch"). Returns presence.
  template <class Handle>
  bool update(Handle& h, std::uint64_t key, TmWord value) const {
    const std::size_t base = bucket_of(key) * kBucketWidth;
    for (std::size_t i = 0; i < kBucketWidth; ++i) {
      const Slot& s = slots_[base + i];
      const TmWord k = s.key.read(h);
      if (k == key) {
        s.value.write(h, value);
        return true;
      }
      if (k == kEmptyKey) break;
    }
    slots_[base].value.write(h, value);
    return false;
  }

 private:
  struct Slot {
    TVar<TmWord> key;
    TVar<TmWord> value;
  };

  static std::size_t bucket_count_for(std::size_t n) {
    std::size_t want = n / 2 + 1;  // ~2 occupied slots per 4-wide bucket
    std::size_t count = 1;
    while (count < want) count <<= 1;
    return count;
  }

  [[nodiscard]] std::size_t bucket_of(std::uint64_t key) const {
    return static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 32) & bucket_mask_;
  }

  std::size_t n_;
  std::size_t bucket_mask_;
  std::vector<Slot> slots_;
};

}  // namespace rhtm
