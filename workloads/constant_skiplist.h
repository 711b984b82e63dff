#pragma once

// Constant transactional skiplist: a deterministic (perfect) skiplist whose
// SHAPE never changes — level l links every 2^l-th node, so node 0 sits on
// every level and acts as the head. Keys are the odd numbers 1,3,...,2n-1;
// searches descend the tower reading each probed key transactionally
// (~2·log2 n reads per op — deeper than the hash table, shallower than the
// sorted list's O(n) scans); updates overwrite the floor node's value word
// in place. This fills the read-set-size gap between the existing constant
// workloads while staying repeatable across runs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"

namespace rhtm {

class ConstantSkipList {
 public:
  explicit ConstantSkipList(std::size_t n) : nodes_(n == 0 ? 1 : n) {
    const std::size_t count = nodes_.size();
    levels_ = 1;
    while ((std::size_t{1} << levels_) < count) ++levels_;
    for (std::size_t i = 0; i < count; ++i) {
      nodes_[i].key.unsafe_write(static_cast<TmWord>(2 * i + 1));
      nodes_[i].value.unsafe_write(static_cast<TmWord>(i));
    }
    next_.assign(levels_, std::vector<std::int32_t>(count, -1));
    for (unsigned l = 0; l < levels_; ++l) {
      const std::size_t stride = std::size_t{1} << l;
      for (std::size_t i = 0; i + stride < count; i += stride) {
        next_[l][i] = static_cast<std::int32_t>(i + stride);
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] unsigned levels() const { return levels_; }

  /// Transactional search. On hit stores the node value into *out.
  template <class Handle>
  bool lookup(Handle& h, std::uint64_t key, TmWord* out) const {
    const std::size_t i = find_floor(h, key);
    const Node& node = nodes_[i];
    if (node.key.read(h) == key) {
      *out = node.value.read(h);
      return true;
    }
    return false;
  }

  /// Transactional update: overwrite the value of the matching node, or of
  /// the floor node when the key is absent (the shape stays constant either
  /// way). Returns whether the key was present.
  template <class Handle>
  bool update(Handle& h, std::uint64_t key, TmWord value) const {
    const std::size_t i = find_floor(h, key);
    const Node& node = nodes_[i];
    const bool hit = node.key.read(h) == key;
    node.value.write(h, value);
    return hit;
  }

 private:
  struct Node {
    TVar<TmWord> key;
    TVar<TmWord> value;
  };

  /// Standard skiplist descent: from the head (node 0, present on every
  /// level), walk forward while the next key is <= `key`, dropping one
  /// level whenever the next node overshoots. Returns the greatest node
  /// with key <= `key` (or node 0 when every key is larger).
  template <class Handle>
  std::size_t find_floor(Handle& h, std::uint64_t key) const {
    std::size_t i = 0;
    for (int l = static_cast<int>(levels_) - 1; l >= 0; --l) {
      for (;;) {
        const std::int32_t nxt = next_[static_cast<std::size_t>(l)][i];
        if (nxt < 0) break;
        if (nodes_[static_cast<std::size_t>(nxt)].key.read(h) > key) break;
        i = static_cast<std::size_t>(nxt);
      }
    }
    return i;
  }

  std::vector<Node> nodes_;
  std::vector<std::vector<std::int32_t>> next_;  ///< next_[level][node], constant
  unsigned levels_ = 1;
};

}  // namespace rhtm
