#pragma once

// Constant sorted linked list (paper §3.3, the heavy-contention case):
// every search scans the list prefix reading each node's key
// transactionally — n/2 reads on average — so all transactions share the
// prefix and conflict with any update that lands there. Keys are the odd
// numbers 1,3,...,2n-1; the shape (the next pointers) never changes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"

namespace rhtm {

class ConstantSortedList {
 public:
  explicit ConstantSortedList(std::size_t n) : nodes_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i].key.unsafe_write(static_cast<TmWord>(2 * i + 1));
      nodes_[i].value.unsafe_write(static_cast<TmWord>(i));
      nodes_[i].next = i + 1 < n ? static_cast<std::int32_t>(i + 1) : -1;
    }
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  template <class Handle>
  bool lookup(Handle& h, std::uint64_t key, TmWord* out) const {
    std::int32_t i = nodes_.empty() ? -1 : 0;
    while (i >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      const TmWord k = node.key.read(h);
      if (k == key) {
        *out = node.value.read(h);
        return true;
      }
      if (k > key) return false;
      i = node.next;
    }
    return false;
  }

  /// Scan to the insertion point and overwrite the value there (of the
  /// matching node, or the first node past `key`). Constant shape.
  template <class Handle>
  bool update(Handle& h, std::uint64_t key, TmWord value) const {
    std::int32_t i = nodes_.empty() ? -1 : 0;
    std::int32_t last = i;
    while (i >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      const TmWord k = node.key.read(h);
      if (k == key) {
        node.value.write(h, value);
        return true;
      }
      if (k > key) break;
      last = i;
      i = node.next;
    }
    if (last >= 0) nodes_[static_cast<std::size_t>(last)].value.write(h, value);
    return false;
  }

 private:
  struct Node {
    TVar<TmWord> key;
    TVar<TmWord> value;
    std::int32_t next = -1;
  };

  std::vector<Node> nodes_;
};

}  // namespace rhtm
