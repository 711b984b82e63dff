#pragma once

// HtmSim — the simulated best-effort HTM substrate: software read/write-set
// tracking with genuine atomicity and conflict detection. Loads are
// value-logged, stores are buffered, and commit validates the read set and
// publishes the write buffer under a global commit lock. Capacity is
// accounted in distinct cells, so capacity aborts are real (the extension
// benches and the A3 headroom ablation rely on this). Slower than HtmEmul
// by design: fidelity over speed.

#include <utility>
#include <vector>

#include "core/htm_common.h"
#include "core/indexed_set.h"

namespace rhtm {

class HtmSim {
 public:
  HtmSim() = default;
  explicit HtmSim(const HtmConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const HtmConfig& config() const { return cfg_; }

  class Tx {
   public:
    explicit Tx(HtmSim& htm) : htm_(htm) {}

    /// A cell already written returns its buffered value. Otherwise the
    /// first read of a cell logs the value seen; a re-read that sees a
    /// different value aborts at once, since commit validation would fail
    /// on it anyway.
    TmWord load(const TmCell& c) {
      // The sets only compare keys; nothing is written through the cast.
      TmCell* const key = const_cast<TmCell*>(&c);
      if (!writes_.cells.empty()) {
        if (const auto w = writes_.cells.find(key)) return writes_.values[*w];
      }
      const TmWord v = c.word.load(std::memory_order_acquire);
      const auto [index, fresh] = reads_.cells.insert(key);
      if (!fresh) {
        if (reads_.values[index] != v) throw detail::HtmAbort{HtmStatus::kConflict};
        return v;
      }
      reads_.values.push_back(v);
      if (reads_.cells.size() > htm_.cfg_.max_read_set) {
        throw detail::HtmAbort{HtmStatus::kCapacity};
      }
      return v;
    }

    void store(TmCell& c, TmWord v) {
      const auto [index, fresh] = writes_.cells.insert(&c);
      if (!fresh) {
        writes_.values[index] = v;
        return;
      }
      writes_.values.push_back(v);
      if (writes_.cells.size() > htm_.cfg_.max_write_set) {
        throw detail::HtmAbort{HtmStatus::kCapacity};
      }
    }

    [[noreturn]] void abort_explicit() { throw detail::HtmAbort{HtmStatus::kExplicit}; }

    void poison() { poisoned_ = true; }

   private:
    friend class HtmSim;

    /// cell -> word: `values[i]` belongs to `cells.items()[i]`.
    struct CellWords {
      IndexedSet<TmCell*> cells;
      std::vector<TmWord> values;

      void clear() {
        cells.clear();
        values.clear();
      }
    };

    void reset() {
      reads_.clear();
      writes_.clear();
      poisoned_ = false;
    }

    HtmSim& htm_;
    CellWords reads_;   ///< cell -> first value seen
    CellWords writes_;  ///< cell -> buffered value
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
    const std::vector<TmCell*>& read = tx.reads_.cells.items();
    for (std::size_t i = 0; i < read.size(); ++i) {
      if (read[i]->word.load(std::memory_order_acquire) != tx.reads_.values[i]) {
        pub_.unlock();
        return HtmOutcome{HtmStatus::kConflict};
      }
    }
    const std::vector<TmCell*>& written = tx.writes_.cells.items();
    if (!written.empty()) {
      pub_.mark_in_flight();
      for (std::size_t i = 0; i < written.size(); ++i) {
        written[i]->word.store(tx.writes_.values[i], std::memory_order_release);
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
