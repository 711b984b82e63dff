#pragma once

// The benchmark's three workloads. Each one fixes its substrate, its data
// structure, its op generator (driven only by the workload seed) and its
// output oracles:
//
//   * per-op checks run on every op the moment it commits (after());
//   * run-level checks run once per round on the quiescent state (check()).
//
// Every mismatch either kind finds is one failed op in the report. The
// system under test is HybridTm<H> with its default Config (RH1 fast ->
// RH1 slow -> RH2 -> slow-slow, Mixed-100) over a default universe
// (cm=fixed, numa=off, no tracer); only kv_durable turns durability on.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/htm_emul.h"
#include "core/htm_sim.h"
#include "core/universe.h"
#include "rhbench/harness.h"
#include "workloads/account_store.h"
#include "workloads/constant_rbtree.h"
#include "workloads/zipf.h"

namespace rhbench {

/// One oracle's outcome for a round: how many checks it made and how many
/// failed.
struct Verdict {
  std::string name;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
};
using Verdicts = std::vector<Verdict>;

// ------------------------------------------------------ rbtree_fastpath --
/// Paper Fig. 1: a 100K-node constant red-black tree, 20% updates over
/// uniform keys, on the emul substrate with no abort injection. Keys are
/// never written, so the hit oracle holds even though emul stores are not
/// atomic across a transaction.
class RbtreeFastpath {
 public:
  using Htm = rhtm::HtmEmul;
  static constexpr const char* kName = "rbtree_fastpath";
  static constexpr bool kOpenLoop = false;
  static constexpr std::size_t kNodes = 100'000;
  static constexpr unsigned kUpdatePercent = 20;

  [[nodiscard]] static rhtm::UniverseConfig universe_config() { return {}; }

  struct Op {
    std::uint64_t key;
    bool update;
    TmWord value;
  };
  struct Out {
    bool hit = false;
  };
  struct Thread {
    rhtm::Xoshiro256 rng;
    TmWord tag;                      ///< high bits that make this thread's values unique
    std::uint64_t seq = 0;
    std::vector<TmWord> last_write;  ///< per node: this thread's last value, 0 = none
    std::uint64_t ops = 0, failures = 0;
  };

  RbtreeFastpath() : tree_(kNodes) {
    // Node i holds key 2i+1; a hit lookup's last load is the node's value
    // cell, which maps every logged store back to its node.
    base_ = reinterpret_cast<const char*>(value_cell(0));
    stride_ = reinterpret_cast<const char*>(value_cell(1)) - base_;
    located_ = stride_ > 0 && reinterpret_cast<const char*>(value_cell(kNodes - 1)) ==
                                  base_ + static_cast<std::ptrdiff_t>(kNodes - 1) * stride_;
  }

  [[nodiscard]] Thread make_thread(std::uint64_t seed, unsigned tid) const {
    return Thread{rhtm::Xoshiro256(seed), static_cast<TmWord>(tid + 1) << 40, 0,
                  std::vector<TmWord>(kNodes, 0)};
  }

  Op next(Thread& t) const {
    const std::uint64_t key = t.rng.below(2 * kNodes);
    const bool update = t.rng.percent_chance(kUpdatePercent);
    return {key, update, update ? t.tag | ++t.seq : 0};
  }

  template <class Handle>
  Out exec(Handle& h, const Op& op, Thread& t) const {
    if (op.update) return {tree_.update(h, op.key, op.value, t.rng)};
    TmWord v = 0;
    return {tree_.lookup(h, op.key, &v)};
  }

  void after(Thread& t, const Op& op, const Out& out, const StoreLog& store) const {
    ++t.ops;
    const bool expect_hit = op.key % 2 == 1 && op.key < 2 * kNodes;
    if (out.hit != expect_hit) ++t.failures;
    if (!op.update) return;
    const std::size_t node = node_of(store.cell);
    if (node >= kNodes || store.value != op.value) {
      ++t.failures;  // the update stored somewhere other than a node value
      return;
    }
    t.last_write[node] = op.value;
  }

  /// Final values: a node nobody wrote keeps its build value; a written
  /// node holds the LAST value of one of its writers (each thread's own
  /// writes are ordered, so any serial order ends on some thread's last).
  void check(const std::vector<Thread>& threads, Verdicts& out) const {
    Verdict per_op{"rbtree.hit_iff_odd_key_below_2n", 0, 0};
    for (const Thread& t : threads) {
      per_op.checked += t.ops;
      per_op.failed += t.failures;
    }
    Verdict final_values{"rbtree.final_value_is_a_last_write", kNodes, 0};
    if (!located_) {
      final_values.failed = kNodes;
    } else {
      for (std::size_t i = 0; i < kNodes; ++i) {
        const TmWord v = cell_at(i)->unsafe_load();
        bool written = false;
        bool match = false;
        for (const Thread& t : threads) {
          if (t.last_write[i] == 0) continue;
          written = true;
          match = match || t.last_write[i] == v;
        }
        if (written ? !match : v != static_cast<TmWord>(i)) ++final_values.failed;
      }
    }
    out.push_back(per_op);
    out.push_back(final_values);
  }

 private:
  /// Records the cell of the last load (quiescent, outside transactions).
  struct LastLoadHandle {
    const TmCell* cell = nullptr;
    TmWord load(const TmCell& c) {
      cell = &c;
      return c.unsafe_load();
    }
    void store(TmCell&, TmWord) {}
  };

  [[nodiscard]] const TmCell* value_cell(std::size_t node) const {
    LastLoadHandle h;
    TmWord v = 0;
    return tree_.lookup(h, 2 * node + 1, &v) ? h.cell : nullptr;
  }
  [[nodiscard]] const TmCell* cell_at(std::size_t node) const {
    return reinterpret_cast<const TmCell*>(base_ + static_cast<std::ptrdiff_t>(node) * stride_);
  }
  [[nodiscard]] std::size_t node_of(const TmCell* c) const {
    const std::ptrdiff_t d = reinterpret_cast<const char*>(c) - base_;
    if (c == nullptr || d < 0 || d % stride_ != 0) return kNodes;
    return static_cast<std::size_t>(d / stride_);
  }

  rhtm::ConstantRbTree tree_;
  const char* base_ = nullptr;
  std::ptrdiff_t stride_ = 0;
  bool located_ = false;
};

// ------------------------------------------------- account store, shared --
/// Transfers and shard audits over an AccountStore; the two kv workloads
/// differ only in key distribution, audit share and durability.
struct AccountOp {
  bool audit;
  std::uint64_t from, to;  ///< transfer accounts; `from` is the shard for audits
  TmWord amount;
};
struct AccountOut {
  TmWord sum = 0;  ///< audit result
};
struct AccountThread {
  rhtm::Xoshiro256 rng;
  std::uint64_t audits = 0, bad_audits = 0;
};

template <class Handle>
AccountOut exec_account_op(const rhtm::AccountStore& store, Handle& h, const AccountOp& op) {
  if (op.audit) return {store.audit_shard(h, static_cast<std::size_t>(op.from))};
  store.transfer(h, op.from, op.to, op.amount);
  return {};
}

inline void check_conservation(const rhtm::AccountStore& store, Verdicts& out) {
  out.push_back({"store.total_equals_minted", 1, store.unsafe_total() != store.total_minted()});
}

// ------------------------------------------------------------ kv_service --
/// The open-loop service: Zipf-hot transfers that stay inside one shard,
/// plus a small share of shard audits, on the sim substrate. Because no
/// transfer crosses a shard, every committed shard audit must read exactly
/// that shard's minted total.
class KvService {
 public:
  using Htm = rhtm::HtmSim;
  static constexpr const char* kName = "kv_service";
  static constexpr bool kOpenLoop = true;
  static constexpr std::size_t kAccounts = 4096;
  static constexpr std::size_t kShards = 64;
  static constexpr TmWord kInitial = 1000;
  static constexpr unsigned kAuditPercent = 5;
  static constexpr double kZipfTheta = 0.99;
  /// Offered load, requests/s over all workers: about half the mix's
  /// closed-loop capacity (`--closed-loop`) on a 4-core, no-TSX Xeon VM.
  static constexpr double kRatePerSec = 640'000;

  using Op = AccountOp;
  using Out = AccountOut;
  using Thread = AccountThread;

  [[nodiscard]] static rhtm::UniverseConfig universe_config() { return {}; }

  KvService() : store_(kAccounts, kInitial, kShards), zipf_(kAccounts / kShards, kZipfTheta) {}

  [[nodiscard]] Thread make_thread(std::uint64_t seed, unsigned) const {
    return Thread{rhtm::Xoshiro256(seed)};
  }

  Op next(Thread& t) const {
    const std::uint64_t shard = t.rng.below(kShards);
    if (t.rng.percent_chance(kAuditPercent)) return {true, shard, 0, 0};
    const std::uint64_t base = shard * per_shard();
    const std::size_t from = zipf_.next(t.rng);
    std::size_t to = zipf_.next(t.rng);
    while (to == from) to = zipf_.next(t.rng);
    return {false, base + from, base + to, 1 + t.rng.below(10)};
  }

  template <class Handle>
  Out exec(Handle& h, const Op& op, Thread&) const {
    return exec_account_op(store_, h, op);
  }

  void after(Thread& t, const Op& op, const Out& out, const StoreLog&) const {
    if (!op.audit) return;
    ++t.audits;
    if (out.sum != kInitial * per_shard()) ++t.bad_audits;
  }

  void check(const std::vector<Thread>& threads, Verdicts& out) const {
    Verdict audits{"kv.shard_audit_equals_shard_minted", 0, 0};
    for (const Thread& t : threads) {
      audits.checked += t.audits;
      audits.failed += t.bad_audits;
    }
    out.push_back(audits);
    check_conservation(store_, out);
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t per_shard() { return kAccounts / kShards; }

  rhtm::AccountStore store_;
  rhtm::ZipfianGenerator zipf_;
};

// ------------------------------------------------------------ kv_durable --
/// Durable transfers: uniform over a few thousand accounts (fewer than the
/// durable image's slots), closed loop, sim substrate, every commit through
/// log -> mark -> apply. The redo log is sized so one round never fills it.
class KvDurable {
 public:
  using Htm = rhtm::HtmSim;
  static constexpr const char* kName = "kv_durable";
  static constexpr bool kOpenLoop = false;
  static constexpr std::size_t kAccounts = 4096;
  static constexpr TmWord kInitial = 1000;
  static constexpr std::size_t kLogWords = std::size_t{1} << 25;  ///< 256 MiB, touched as used

  using Op = AccountOp;
  using Out = AccountOut;
  using Thread = AccountThread;

  [[nodiscard]] static rhtm::UniverseConfig universe_config() {
    rhtm::UniverseConfig cfg;
    cfg.durable = true;
    cfg.pmem.log_words = kLogWords;
    return cfg;
  }

  KvDurable() : store_(kAccounts, kInitial) {}

  [[nodiscard]] Thread make_thread(std::uint64_t seed, unsigned) const {
    return Thread{rhtm::Xoshiro256(seed)};
  }

  Op next(Thread& t) const {
    const std::uint64_t from = t.rng.below(kAccounts);
    std::uint64_t to = t.rng.below(kAccounts - 1);
    if (to >= from) ++to;
    return {false, from, to, 1 + t.rng.below(10)};
  }

  template <class Handle>
  Out exec(Handle& h, const Op& op, Thread&) const {
    return exec_account_op(store_, h, op);
  }

  void after(Thread&, const Op&, const Out&, const StoreLog&) const {}

  /// The durable image must mirror live memory: a written account's image
  /// value equals its balance, an account absent from the image still
  /// holds its initial balance. The log must not have overflowed.
  void check(rhtm::PersistentDomain& pd, Verdicts& out) const {
    Verdict image{"durable.image_equals_live_balance", kAccounts, 0};
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      TmWord v = 0;
      const TmWord live = store_.unsafe_balance(a);
      const bool in_image = pd.image_lookup(store_.account_cell(a), &v);
      if (in_image ? v != live : live != kInitial) ++image.failed;
    }
    out.push_back(image);
    out.push_back({"durable.log_not_overflowed", 1, pd.log_overflowed()});
    check_conservation(store_, out);
  }

  /// recover() replays every marked log record into the image; after a
  /// clean run that must change nothing.
  static void check_recovery(rhtm::PersistentDomain& pd, Verdicts& out) {
    std::vector<std::pair<std::uint64_t, TmWord>> before;
    std::vector<std::pair<std::uint64_t, TmWord>> after;
    pd.for_each_image([&](std::uint64_t a, TmWord v) { before.emplace_back(a, v); });
    pd.recover();
    pd.for_each_image([&](std::uint64_t a, TmWord v) { after.emplace_back(a, v); });
    out.push_back({"durable.recover_leaves_image_unchanged", 1, before != after});
  }

 private:
  rhtm::AccountStore store_;
};

}  // namespace rhbench
