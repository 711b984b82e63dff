#pragma once

// Global version clock (paper §2.2). The counter lives in a TmCell so that
// hardware transactions can read (and, under GV1/GV4, advance) it inside
// their speculation window — which is exactly what makes the clock policy
// measurable: a policy that writes the clock makes every overlapping pair of
// hardware transactions conflict on the clock line.
//
// NUMA cached mode (UniverseConfig::numa = shard+clock): GV6-style lazy
// propagation across sockets. Each socket owns a padded cache cell that is a
// LAGGING REPLICA of the global cell — the invariant `cache <= global` is
// what keeps the scheme sound: a reader's rv comes from its home cache, so
// rv can only be stale-LOW, which manufactures extra validation aborts but
// never admits a concurrent committer's stamps into a snapshot. Writers
// never advance the global clock at commit (next() = global + 1 with no
// store, exactly GV6); they refresh their HOME cache from the global after
// committing (publish_home). The global advances only on a reader's
// validation failure (on_abort) — i.e. cross-socket clock traffic is paid
// only when cross-socket data flow actually happened, which is the
// clock_publishes_per_commit metric the numa scenario reports. The scheme
// self-regulates like GV6: stamps sit at global+1, so the first same-epoch
// reader of fresh data aborts once, bumps the global, and every socket's
// cache catches up through subsequent refreshes.

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/cell.h"
#include "core/sharded_counter.h"
#include "core/topology.h"

namespace rhtm {

enum class GvMode : int {
  kGv1 = 0,  ///< fetch-add on every next(): precise, maximal clock traffic
  kGv4 = 1,  ///< one CAS per racing batch; losers adopt the winner's value
  kGv6 = 2,  ///< next() never writes; aborting readers advance the clock
};

[[nodiscard]] inline const char* to_string(GvMode m) {
  switch (m) {
    case GvMode::kGv1: return "GV1";
    case GvMode::kGv4: return "GV4";
    case GvMode::kGv6: return "GV6";
  }
  return "?";
}

class GlobalVersionClock {
 public:
  explicit GlobalVersionClock(GvMode mode = GvMode::kGv1) : mode_(mode) {}

  /// Cached (NUMA shard+clock) construction: one lagging replica cell per
  /// socket of `topo`. Null topology degrades to the plain clock.
  GlobalVersionClock(GvMode mode, const Topology* topo) : mode_(mode), topo_(topo) {
    if (topo_ != nullptr) {
      caches_ = std::vector<SocketCache>(topo_->socket_count());
    }
  }

  [[nodiscard]] GvMode mode() const { return mode_; }
  [[nodiscard]] bool cached() const { return !caches_.empty(); }

  /// Whether hardware commits should store the clock cell inside their
  /// speculation window. In cached mode they must not — the in-txn store is
  /// exactly the cross-socket clock-line conflict the mode removes; stamps
  /// at global+1 are admitted via the on_abort progress rule instead.
  [[nodiscard]] bool hw_writes_clock() const {
    return !cached() && mode_ != GvMode::kGv6;
  }

  /// The cell backing the counter — hardware paths subscribe through this.
  [[nodiscard]] TmCell& cell() { return cell_; }

  /// Read-version sample. Cached mode reads the caller's socket cache:
  /// stale-low is safe (extra aborts at worst), and the load stays on a
  /// socket-local line.
  [[nodiscard]] TmWord read() const {
    if (cached()) {
      return caches_[home_socket()].cell.word.load(std::memory_order_acquire);
    }
    return cell_.word.load(std::memory_order_acquire);
  }

  /// Next write-version for a software commit. Under GV6 the clock itself is
  /// not advanced; the returned stamp is still strictly greater than any
  /// read-version sampled before the commit, which is all validation needs.
  /// Cached mode is GV6 over the GLOBAL cell: no write, and since every
  /// socket cache lags the global, the stamp also exceeds every cached rv.
  TmWord next() {
    if (cached()) {
      return cell_.word.load(std::memory_order_acquire) + 1;
    }
    switch (mode_) {
      case GvMode::kGv1:
        count_global_publish();
        return cell_.word.fetch_add(1, std::memory_order_acq_rel) + 1;
      case GvMode::kGv4: {
        TmWord cur = cell_.word.load(std::memory_order_acquire);
        const TmWord want = cur + 1;
        if (cell_.word.compare_exchange_strong(cur, want, std::memory_order_acq_rel)) {
          count_global_publish();
          return want;
        }
        // Lost the race: `cur` now holds the winner's (newer) value — adopt
        // it instead of retrying, batching the whole racing group onto one
        // clock increment.
        return cur;
      }
      case GvMode::kGv6:
        return cell_.word.load(std::memory_order_acquire) + 1;
    }
    return 0;
  }

  /// GV6 progress rule: a reader that aborts on a too-new stripe version
  /// advances the clock so its next read-version admits the new data. In
  /// cached mode this is the ONLY write to the global cell — the one
  /// cross-socket publish — and the aborting reader's home cache is lifted
  /// to the new value so its retry sees it immediately.
  void on_abort() {
    if (cached()) {
      const TmWord g = cell_.word.fetch_add(1, std::memory_order_acq_rel) + 1;
      lift_cache(home_socket(), g);
      count_global_publish();
      return;
    }
    if (mode_ == GvMode::kGv6) {
      cell_.word.fetch_add(1, std::memory_order_acq_rel);
      count_global_publish();
    }
  }

  /// Post-commit lazy propagation (cached mode): refresh the committer's
  /// HOME socket cache from the global cell. Never lifts a cache above the
  /// global, preserving the lagging-replica invariant. No-op otherwise.
  void publish_home() {
    if (!cached()) return;
    lift_cache(home_socket(), cell_.word.load(std::memory_order_acquire));
    local_publishes_.fetch_add(1);
  }

  /// Bookkeeping hook for a hardware commit that stamped stripes: in modes
  /// where the commit stored the clock cell in-txn that store IS a global
  /// publish; in cached mode the store was skipped, so propagate the home
  /// cache instead.
  void note_hw_commit() {
    if (cached()) {
      publish_home();
      return;
    }
    if (mode_ != GvMode::kGv6) count_global_publish();
  }

  /// Writes that hit the shared global cell (every socket pays coherence).
  /// Both tallies are per-thread slots: exact once the committers quiesce.
  [[nodiscard]] std::uint64_t global_publishes() const { return global_publishes_.load(); }
  /// Socket-local cache refreshes (cached mode only).
  [[nodiscard]] std::uint64_t local_publishes() const { return local_publishes_.load(); }

 private:
  struct alignas(64) SocketCache {
    TmCell cell;
  };

  [[nodiscard]] unsigned home_socket() const {
    return current_socket_of_thread(*topo_) %
           static_cast<unsigned>(caches_.size());
  }

  /// Monotonic CAS-max: never moves a cache backwards (concurrent lifts
  /// race benignly) and never above the value read from the global.
  void lift_cache(unsigned s, TmWord v) {
    auto& c = caches_[s].cell.word;
    TmWord cur = c.load(std::memory_order_relaxed);
    while (cur < v &&
           !c.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
    }
  }

  void count_global_publish() { global_publishes_.fetch_add(1); }

  GvMode mode_;
  const Topology* topo_ = nullptr;
  TmCell cell_;
  std::vector<SocketCache> caches_;
  ShardedCounter global_publishes_;
  ShardedCounter local_publishes_;
};

}  // namespace rhtm
