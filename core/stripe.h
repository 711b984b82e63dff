#pragma once

// Stripe (ownership-record) table: maps every address to a versioned-lock
// word, plus the RH2 visible-reader mask array. Geometry is configurable —
// fewer stripes / coarser granules alias more addresses onto one word and
// manufacture false conflicts (ablation A2).
//
// NUMA sharding (UniverseConfig::numa != off): the flat array becomes a
// façade over per-socket shards. The global stripe index i is unchanged —
// index_of hashes exactly as before — but its storage decomposes as
// (shard = i >> per_shard_log2, local = i & per_shard_mask), i.e. the shard
// id lives in the HIGH bits. That makes plain integer order on i identical
// to lexicographic (shard, local) order, so the TL2 sorted lock-acquire is
// already in canonical (shard, index) order and cross-shard commits stay
// livelock-free with zero changes to the commit loops. Shard s's cells are
// first-touch allocated on socket s % socket_count (the topology rule), so
// with scatter pinning thread t's home shard is socket-local. shards == 1
// is bit-identical to the historical flat table.

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/cell.h"
#include "core/topology.h"

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
  /// Socket shard count (UniverseConfig::numa derives it from the topology;
  /// rounded up to a power of two, capped at the stripe count). 1 = the
  /// flat pre-NUMA layout.
  unsigned shards = 1;
  /// First-touch geometry: shard s is allocated on socket s % socket_count
  /// of this topology. Null (or single-socket) skips the pinned first touch.
  const Topology* topology = nullptr;
};

/// Versioned-lock word layout: bit 0 = locked, bits 63..1 = version.
class StripeTable {
 public:
  static constexpr TmWord kLockBit = 1;

  StripeTable() : StripeTable(StripeConfig{}) {}
  explicit StripeTable(const StripeConfig& cfg)
      : cfg_(cfg), mask_(((std::size_t{1}) << cfg.log2_count) - 1) {
    unsigned shard_log2 = 0;
    while ((1u << shard_log2) < (cfg.shards == 0 ? 1u : cfg.shards) &&
           shard_log2 < cfg.log2_count) {
      ++shard_log2;
    }
    per_shard_log2_ = cfg.log2_count - shard_log2;
    per_shard_mask_ = ((std::size_t{1}) << per_shard_log2_) - 1;
    shards_ = std::vector<Shard>(std::size_t{1} << shard_log2);
    const std::size_t per_shard = std::size_t{1} << per_shard_log2_;
    const Topology* topo = cfg.topology;
    if (shards_.size() > 1 && topo != nullptr && topo->socket_count() > 1) {
      // First touch: build each shard's arrays from a thread pinned to the
      // shard's home socket, so the pages land in that socket's memory.
      std::vector<std::thread> builders;
      builders.reserve(shards_.size());
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        builders.emplace_back([this, s, per_shard, topo] {
          const auto& cpus =
              topo->cpus_of_socket(static_cast<unsigned>(s) % topo->socket_count());
          if (!cpus.empty()) (void)pin_this_thread_to_cpu(cpus[0]);
          shards_[s].words = std::vector<TmCell>(per_shard);
          shards_[s].read_masks = std::vector<TmCell>(per_shard);
        });
      }
      for (auto& b : builders) b.join();
    } else {
      for (auto& s : shards_) {
        s.words = std::vector<TmCell>(per_shard);
        s.read_masks = std::vector<TmCell>(per_shard);
      }
    }
  }

  [[nodiscard]] std::size_t count() const { return mask_ + 1; }
  [[nodiscard]] const StripeConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  /// The shard a global stripe index routes to (high bits of i).
  [[nodiscard]] unsigned shard_of(std::size_t i) const {
    return static_cast<unsigned>(i >> per_shard_log2_);
  }
  /// The socket shard s is first-touched on (the topology home rule).
  [[nodiscard]] unsigned home_socket_of_shard(unsigned s) const {
    const unsigned n = cfg_.topology != nullptr ? cfg_.topology->socket_count() : 1;
    return s % (n == 0 ? 1 : n);
  }

  /// Address -> stripe index. Granule-aligned addresses are multiplied by a
  /// golden-ratio constant so nearby granules spread across the table.
  [[nodiscard]] std::size_t index_of(const void* addr) const {
    const auto granule = reinterpret_cast<std::uintptr_t>(addr) >> cfg_.granularity_log2;
    return (static_cast<std::uint64_t>(granule) * 0x9e3779b97f4a7c15ull >> 32) & mask_;
  }

  [[nodiscard]] TmCell& word(std::size_t i) {
    return shards_[i >> per_shard_log2_].words[i & per_shard_mask_];
  }
  [[nodiscard]] TmCell& read_mask(std::size_t i) {
    return shards_[i >> per_shard_log2_].read_masks[i & per_shard_mask_];
  }

  /// Software prefetch of a stripe's version word. The commit loops walk
  /// exact-deduped stripe lists whose words are scattered across the table
  /// (index_of hashes), so every iteration is a fresh cache miss the
  /// hardware stride prefetcher cannot predict; issuing the next index's
  /// prefetch one iteration ahead overlaps that miss with the current
  /// check/stamp. `for_write` hints exclusive ownership (stamp loops).
  void prefetch_word(std::size_t i, bool for_write = false) const {
#if (defined(__GNUC__) || defined(__clang__)) && !defined(RHTM_NO_PREFETCH)
    const TmCell* cell = &shards_[i >> per_shard_log2_].words[i & per_shard_mask_];
    if (for_write) {
      __builtin_prefetch(static_cast<const void*>(cell), 1, 3);
    } else {
      __builtin_prefetch(static_cast<const void*>(cell), 0, 3);
    }
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
  /// ascending global-index order, which is (shard, local) order by
  /// construction — the canonical cross-shard lock order.
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
  void publish_read(std::size_t i) {
    auto& m = read_mask(i).word;
    if (cfg_.mask_rmw == MaskRmw::kFetchAdd) {
      m.fetch_add(1, std::memory_order_acq_rel);
    } else {
      TmWord cur = m.load(std::memory_order_acquire);
      while (!m.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel)) {
      }
    }
  }
  void unpublish_read(std::size_t i) {
    auto& m = read_mask(i).word;
    if (cfg_.mask_rmw == MaskRmw::kFetchAdd) {
      m.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      TmWord cur = m.load(std::memory_order_acquire);
      while (!m.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel)) {
      }
    }
  }
  [[nodiscard]] TmWord readers(std::size_t i) const {
    return shards_[i >> per_shard_log2_].read_masks[i & per_shard_mask_].word.load(
        std::memory_order_acquire);
  }

 private:
  /// One socket's slice of the table. alignas keeps shard headers off each
  /// other's cache lines; the cell arrays themselves are separate (ideally
  /// socket-local) heap allocations.
  struct alignas(kCacheLineBytes) Shard {
    std::vector<TmCell> words;
    std::vector<TmCell> read_masks;
  };

  StripeConfig cfg_;
  std::size_t mask_;
  unsigned per_shard_log2_ = 0;
  std::size_t per_shard_mask_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace rhtm
