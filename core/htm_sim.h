#pragma once

// HtmSim — the simulated best-effort HTM substrate: software read/write-set
// tracking with genuine atomicity and conflict detection. Loads are
// value-logged, stores are buffered, and commit validates the read log and
// publishes the write buffer under a global commit lock. Capacity is
// accounted in distinct lines, so capacity aborts are real (the extension
// benches and the A3 headroom ablation rely on this). Slower than HtmEmul
// by design: fidelity over speed.

#include <utility>
#include <vector>

#include "core/htm_common.h"

namespace rhtm {

class HtmSim {
 public:
  HtmSim() = default;
  explicit HtmSim(const HtmConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const HtmConfig& config() const { return cfg_; }

  class Tx {
   public:
    explicit Tx(HtmSim& htm) : htm_(htm) {}

    TmWord load(const TmCell& c) {
      if (const WriteEnt* e = find_write(&c)) return e->value;  // read-after-write
      const TmWord v = c.word.load(std::memory_order_acquire);
      read_log_.push_back({&c, v});
      if (read_lines_.insert(detail::line_of(&c, htm_.cfg_.line_shift)) &&
          read_lines_.count() > htm_.cfg_.max_read_set) {
        throw detail::HtmAbort{HtmStatus::kCapacity};
      }
      return v;
    }

    void store(TmCell& c, TmWord v) {
      put_write(&c, v);
      if (write_lines_.insert(detail::line_of(&c, htm_.cfg_.line_shift)) &&
          write_lines_.count() > htm_.cfg_.max_write_set) {
        throw detail::HtmAbort{HtmStatus::kCapacity};
      }
    }

    [[noreturn]] void abort_explicit() { throw detail::HtmAbort{HtmStatus::kExplicit}; }

    void poison() { poisoned_ = true; }

   private:
    friend class HtmSim;

    struct WriteEnt {
      TmCell* cell;
      TmWord value;
    };

    void reset() {
      read_log_.clear();
      writes_.clear();
      read_lines_.clear();
      write_lines_.clear();
      write_index_.clear();
      poisoned_ = false;
    }

    const WriteEnt* find_write(const TmCell* c) const {
      if (write_index_.count() == 0) return nullptr;
      const std::size_t idx = write_index_.find(reinterpret_cast<std::uintptr_t>(c));
      return idx != kNoSlot ? &writes_[idx] : nullptr;
    }

    void put_write(TmCell* c, TmWord v) {
      const std::size_t idx = write_index_.find(reinterpret_cast<std::uintptr_t>(c));
      if (idx != kNoSlot) {
        writes_[idx].value = v;
        return;
      }
      writes_.push_back({c, v});
      write_index_.put(reinterpret_cast<std::uintptr_t>(c), writes_.size() - 1);
    }

    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /// Tiny open-addressed pointer -> index map with epoch clearing.
    class PtrIndex {
     public:
      PtrIndex() : keys_(1024, 0), vals_(1024, 0), epochs_(1024, 0) {}
      void clear() {
        ++epoch_;
        count_ = 0;
        if (epoch_ == 0) {
          std::fill(epochs_.begin(), epochs_.end(), 0);
          epoch_ = 1;
        }
      }
      [[nodiscard]] std::size_t count() const { return count_; }
      [[nodiscard]] std::size_t find(std::uintptr_t key) const {
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (epochs_[i] == epoch_) {
          if (keys_[i] == key) return vals_[i];
          i = (i + 1) & mask;
        }
        return kNoSlot;
      }
      void put(std::uintptr_t key, std::size_t val) {
        if (count_ * 4 >= keys_.size() * 3) grow();
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (epochs_[i] == epoch_) {
          if (keys_[i] == key) {
            vals_[i] = val;
            return;
          }
          i = (i + 1) & mask;
        }
        keys_[i] = key;
        vals_[i] = val;
        epochs_[i] = epoch_;
        ++count_;
      }

     private:
      static std::size_t hash(std::uintptr_t key) {
        return static_cast<std::size_t>(static_cast<std::uint64_t>(key >> 3) *
                                        0x9e3779b97f4a7c15ull >> 32);
      }
      void grow() {
        std::vector<std::uintptr_t> old_keys = std::move(keys_);
        std::vector<std::size_t> old_vals = std::move(vals_);
        std::vector<std::uint32_t> old_epochs = std::move(epochs_);
        const std::uint32_t live = epoch_;
        keys_.assign(old_keys.size() * 2, 0);
        vals_.assign(old_keys.size() * 2, 0);
        epochs_.assign(old_keys.size() * 2, 0);
        epoch_ = 1;
        count_ = 0;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
          if (old_epochs[i] == live) put(old_keys[i], old_vals[i]);
        }
      }

      std::vector<std::uintptr_t> keys_;
      std::vector<std::size_t> vals_;
      std::vector<std::uint32_t> epochs_;
      std::uint32_t epoch_ = 1;
      std::size_t count_ = 0;
    };

    HtmSim& htm_;
    std::vector<std::pair<const TmCell*, TmWord>> read_log_;
    std::vector<WriteEnt> writes_;
    PtrIndex write_index_;
    detail::LineSet read_lines_;
    detail::LineSet write_lines_;
    bool poisoned_ = false;
  };

  template <class Body>
  HtmOutcome execute(Tx& tx, Body&& body) {
    tx.reset();
    try {
      std::forward<Body>(body)(tx);
    } catch (const detail::HtmAbort& a) {
      return HtmOutcome{a.status};
    }
    if (tx.poisoned_) return HtmOutcome{HtmStatus::kInjected};
    return commit(tx);
  }

  /// Runs `f` — a non-transactional read-modify-write of a word hardware
  /// transactions read (a stripe lock, the clock, a fallback, sequence or
  /// phase word, an RH2 mask) — atomically with respect to hardware
  /// commits. Real HTM gets this from strong isolation: the write aborts
  /// every transaction that read the line. Here a commit validates and
  /// publishes under the commit lock, so `f` takes that lock too; without
  /// it the write could land between a commit's validation and its
  /// publication and be overwritten or go unseen.
  template <class F>
  auto nontx_atomic(F&& f) {
    struct Unlock {
      detail::PublicationSeqlock& pub;
      ~Unlock() { pub.unlock(); }
    };
    pub_.lock();
    const Unlock unlock{pub_};
    return f();
  }

  /// Non-transactional accesses. Stores serialize against the commit lock so
  /// that a software write-back cannot slip between a hardware commit's
  /// validation and its publication.
  [[nodiscard]] TmWord nontx_load(const TmCell& c) const {
    return c.word.load(std::memory_order_acquire);
  }
  void nontx_store(TmCell& c, TmWord v) {
    nontx_atomic([&] { c.word.store(v, std::memory_order_release); });
  }

  /// Multi-word software publication (TL2 / slow-slow / NOrec write-back):
  /// holds the commit lock across the whole batch so a hardware commit's
  /// validation can never observe a half-published software commit, and
  /// marks the publication window on the epoch for software readers.
  template <class Entries>
  void nontx_publish(const Entries& entries) {
    pub_.publish(entries);
  }

  /// Seqlock epoch over every multi-word publication (hardware commit
  /// write-back and nontx_publish). Odd = a publication is in flight.
  /// Software read barriers bracket their stripe/data/stripe load sequence
  /// with this to rule out torn views of a commit they do not otherwise
  /// synchronize with.
  [[nodiscard]] TmWord publication_epoch() const { return pub_.epoch(); }

 private:
  HtmOutcome commit(Tx& tx) {
    pub_.lock();
    for (const auto& [cell, seen] : tx.read_log_) {
      if (cell->word.load(std::memory_order_acquire) != seen) {
        pub_.unlock();
        return HtmOutcome{HtmStatus::kConflict};
      }
    }
    if (!tx.writes_.empty()) {
      pub_.mark_in_flight();
      for (const auto& w : tx.writes_) {
        w.cell->word.store(w.value, std::memory_order_release);
      }
      pub_.mark_settled();
    }
    pub_.unlock();
    return HtmOutcome{HtmStatus::kCommitted};
  }

  HtmConfig cfg_;
  detail::PublicationSeqlock pub_;
};

template <>
struct SubstrateTraits<HtmSim> {
  static constexpr SubstrateKind kKind = SubstrateKind::kSim;
  static constexpr const char* kName = to_string(kKind);
  static constexpr bool kAtomic = true;  ///< validated commits, real conflicts
};

}  // namespace rhtm
