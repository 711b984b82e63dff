#pragma once

// AccountStore — the transactional service layer's data plane: a fixed-shard
// account/KV store over TmUniverse cells, in the shape of the
// financial-transfer workloads (transfers + balance audits as transactions).
// Four operations, each one transaction:
//
//  * transfer        — 2 reads + 2 writes; insufficient funds = committed
//                      no-op returning false (progress accounting stays
//                      honest, conservation is unconditional).
//  * batch transfer  — K transfers applied inside ONE transaction (the
//                      open-loop driver's request batching maps straight
//                      onto this).
//  * balance read    — 1 read.
//  * audit           — sum of every balance (or of one shard): the long
//                      read-only transaction. Atomicity makes the invariant
//                      exact: every committed audit MUST observe the minted
//                      total, never a torn partial transfer
//                      (tests/account_store_test.cpp pins this per
//                      protocol).
//
// Accounts are laid out shard-major: shard s owns the contiguous account
// range [s * per_shard, (s + 1) * per_shard). The shard axis gives the
// service scenario a knob between short audits (one shard) and full audits
// (every account — a capacity-escalation driver on bounded-HTM substrates).
//
// Conservation invariant: the sum of all balances equals total_minted() at
// every transaction boundary — transfers move value, nothing creates or
// destroys it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cell.h"

namespace rhtm {

class AccountStore {
 public:
  struct Transfer {
    std::uint64_t from;
    std::uint64_t to;
    TmWord amount;
  };

  /// `accounts` is rounded up to a multiple of `shards` so every shard owns
  /// the same number of accounts; each starts with `initial` units.
  AccountStore(std::size_t accounts, TmWord initial, std::size_t shards = 16)
      : shards_(shards == 0 ? 1 : shards),
        per_shard_((accounts + shards_ - 1) / shards_ == 0
                       ? 1
                       : (accounts + shards_ - 1) / shards_),
        initial_(initial),
        balances_(shards_ * per_shard_) {
    for (auto& b : balances_) b.unsafe_write(initial);
  }

  [[nodiscard]] std::size_t accounts() const { return balances_.size(); }
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t shard_of(std::uint64_t account) const {
    return static_cast<std::size_t>(account) / per_shard_;
  }
  [[nodiscard]] TmWord total_minted() const {
    return initial_ * static_cast<TmWord>(balances_.size());
  }

  /// Moves `amount` from `from` to `to`. Insufficient funds (or a
  /// self-transfer) commit as a no-op returning false/true without touching
  /// any balance beyond the reads — conservation holds unconditionally.
  template <class Handle>
  bool transfer(Handle& h, std::uint64_t from, std::uint64_t to, TmWord amount) const {
    const TVar<TmWord>& src = balances_[static_cast<std::size_t>(from) % balances_.size()];
    const TVar<TmWord>& dst = balances_[static_cast<std::size_t>(to) % balances_.size()];
    if (&src == &dst) return true;  // self-transfer: trivially conserving
    const TmWord have = src.read(h);
    if (have < amount) return false;
    src.write(h, have - amount);
    dst.write(h, dst.read(h) + amount);
    return true;
  }

  /// Applies `n` transfers inside the caller's single transaction; each
  /// insufficient-funds item is skipped (not rolled up into all-or-nothing —
  /// the batch is a service-side amortization, not a composite contract).
  /// Returns how many applied.
  template <class Handle>
  std::size_t batch_transfer(Handle& h, const Transfer* items, std::size_t n) const {
    std::size_t applied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (transfer(h, items[i].from, items[i].to, items[i].amount)) ++applied;
    }
    return applied;
  }

  template <class Handle>
  [[nodiscard]] TmWord balance(Handle& h, std::uint64_t account) const {
    return balances_[static_cast<std::size_t>(account) % balances_.size()].read(h);
  }

  /// Sum of every balance — the full-audit transaction. A committed audit
  /// must return total_minted() exactly.
  template <class Handle>
  [[nodiscard]] TmWord audit(Handle& h) const {
    TmWord sum = 0;
    for (const TVar<TmWord>& b : balances_) sum += b.read(h);
    return sum;
  }

  /// Sum of one shard's balances — the short-audit flavour.
  template <class Handle>
  [[nodiscard]] TmWord audit_shard(Handle& h, std::size_t shard) const {
    const std::size_t base = (shard % shards_) * per_shard_;
    TmWord sum = 0;
    for (std::size_t i = 0; i < per_shard_; ++i) sum += balances_[base + i].read(h);
    return sum;
  }

  /// Stable cell address of an account. The durable crash harness keys its
  /// recovered-redo-log oracle by cell address (tests/crash_harness.h): the
  /// parent process maps each logged address back to the account it belongs
  /// to when validating a crashed child's log.
  [[nodiscard]] const TmCell* account_cell(std::uint64_t account) const {
    return &balances_[static_cast<std::size_t>(account) % balances_.size()].cell();
  }

  /// Quiescent per-account read for tests (never concurrent with
  /// transactions).
  [[nodiscard]] TmWord unsafe_balance(std::uint64_t account) const {
    return balances_[static_cast<std::size_t>(account) % balances_.size()].unsafe_read();
  }

  /// Quiescent conservation check for tests (never concurrent with
  /// transactions).
  [[nodiscard]] TmWord unsafe_total() const {
    TmWord sum = 0;
    for (const TVar<TmWord>& b : balances_) sum += b.unsafe_read();
    return sum;
  }

 private:
  std::size_t shards_;
  std::size_t per_shard_;
  TmWord initial_;
  std::vector<TVar<TmWord>> balances_;
};

}  // namespace rhtm
