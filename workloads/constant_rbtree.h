#pragma once

// Constant red-black tree (paper §3.2): a pre-built balanced search tree
// whose SHAPE never changes — updates overwrite node values in place, so
// every run sees the identical pointer structure and results are
// repeatable. Keys are the odd numbers 1,3,...,2n-1; benches draw keys
// uniformly from [0, 2n), hitting ~50%. A lookup walks ~log2(n)
// transactional key reads; an update adds one transactional value write.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"
#include "core/rng.h"

namespace rhtm {

class ConstantRbTree {
 public:
  explicit ConstantRbTree(std::size_t n) : n_(n), nodes_(n) {
    root_ = build(0, static_cast<std::int64_t>(n) - 1);
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Transactional search. On hit stores the node value into *out.
  template <class Handle>
  bool lookup(Handle& h, std::uint64_t key, TmWord* out) const {
    std::int32_t i = root_;
    while (i >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      const TmWord k = node.key.read(h);
      if (k == key) {
        *out = node.value.read(h);
        return true;
      }
      i = key < k ? node.left : node.right;
    }
    return false;
  }

  /// Transactional update: overwrite the value of the matching node, or of
  /// the last node on the search path when the key is absent (the shape
  /// stays constant either way). Returns whether the key was present.
  template <class Handle>
  bool update(Handle& h, std::uint64_t key, TmWord value) const {
    std::int32_t i = root_;
    std::int32_t last = root_;
    while (i >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      const TmWord k = node.key.read(h);
      if (k == key) {
        node.value.write(h, value);
        return true;
      }
      last = i;
      i = key < k ? node.left : node.right;
    }
    if (last >= 0) nodes_[static_cast<std::size_t>(last)].value.write(h, value);
    return false;
  }

  /// The older rng-taking call shape (rhbench's workload uses it); the rng
  /// is unused.
  template <class Handle>
  bool update(Handle& h, std::uint64_t key, TmWord value, Xoshiro256& /*rng*/) const {
    return update(h, key, value);
  }

 private:
  struct Node {
    TVar<TmWord> key;
    TVar<TmWord> value;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  /// Builds a perfectly balanced tree over the sorted key range [lo, hi].
  std::int32_t build(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) return -1;
    const std::int64_t mid = lo + (hi - lo) / 2;
    Node& node = nodes_[static_cast<std::size_t>(mid)];
    node.key.unsafe_write(static_cast<TmWord>(2 * mid + 1));
    node.value.unsafe_write(static_cast<TmWord>(mid));
    node.left = build(lo, mid - 1);
    node.right = build(mid + 1, hi);
    return static_cast<std::int32_t>(mid);
  }

  std::size_t n_;
  std::vector<Node> nodes_;
  std::int32_t root_;
};

}  // namespace rhtm
