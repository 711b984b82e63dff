#pragma once

// The transactional memory word. Every piece of transactional state — data
// words, stripe version words, the global clock, protocol lock words — is a
// TmCell so the hardware substrates can load/store it inside a transaction
// and the software paths can access it atomically outside one.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace rhtm {

using TmWord = std::uint64_t;

/// Coherence granule the layout assumptions are written against: a word
/// that many threads write owns one of these, so that nothing read on an
/// access path shares its line.
inline constexpr std::size_t kCacheLineBytes = 64;

struct TmCell {
  std::atomic<TmWord> word{0};

  TmCell() = default;
  explicit TmCell(TmWord v) : word(v) {}
  TmCell(const TmCell&) = delete;
  TmCell& operator=(const TmCell&) = delete;

  /// Non-transactional accessors for initialization and tests.
  [[nodiscard]] TmWord unsafe_load() const { return word.load(std::memory_order_relaxed); }
  void unsafe_store(TmWord v) { word.store(v, std::memory_order_relaxed); }
};

/// A typed transactional variable. All transactional access goes through a
/// protocol handle `h` providing `TmWord load(const TmCell&)` and
/// `void store(TmCell&, TmWord)`; the handle decides the barrier (plain
/// hardware access, TL2 read barrier, write-set insert, ...).
template <class T = TmWord>
class TVar {
  static_assert(sizeof(T) <= sizeof(TmWord) && std::is_trivially_copyable_v<T>,
                "TVar payload must fit a TmWord");

 public:
  TVar() = default;
  explicit TVar(T v) : cell_(to_word(v)) {}

  template <class Handle>
  T read(Handle& h) const {
    return from_word(h.load(cell_));
  }

  template <class Handle>
  void write(Handle& h, T v) const {
    h.store(cell_, to_word(v));
  }

  [[nodiscard]] T unsafe_read() const { return from_word(cell_.unsafe_load()); }
  void unsafe_write(T v) const { cell_.unsafe_store(to_word(v)); }

  [[nodiscard]] TmCell& cell() const { return cell_; }

 private:
  static TmWord to_word(T v) {
    TmWord w = 0;
    std::memcpy(&w, &v, sizeof(T));
    return w;
  }
  static T from_word(TmWord w) {
    T v;
    std::memcpy(&v, &w, sizeof(T));
    return v;
  }

  mutable TmCell cell_;
};

/// A protocol-handle-shaped wrapper over the unsafe accessors: lets
/// templated transactional algorithms (tree descent, queue ops, invariant
/// walks) run outside any transaction — for single-threaded initialization
/// and quiescent validation in tests. Never use it while other threads run
/// transactions over the same cells.
struct UnsafeHandle {
  TmWord load(const TmCell& c) { return c.unsafe_load(); }
  void store(TmCell& c, TmWord v) { c.unsafe_store(v); }
};

}  // namespace rhtm
