#pragma once

// Global version clock (paper §2.2). The counter lives in a TmCell so that
// hardware transactions can read (and, under GV1/GV4, advance) it inside
// their speculation window — which is exactly what makes the clock policy
// measurable: a policy that writes the clock makes every overlapping pair of
// hardware transactions conflict on the clock line.
//
// GV6 (the universe default) takes that store out of every commit: stamps
// sit at clock+1 and nothing advances the clock at commit. Software readers
// that meet such a stamp lift the clock to it and extend their read version
// (core/tl2.h, LSA's timestamp extension), so clock writes are paid only
// when data flows from a writer to a later reader.
//
// NUMA cached mode (UniverseConfig::numa = shard+clock) is GV6 plus one
// padded LAGGING REPLICA of the global cell per socket. The invariant
// `cache <= global` keeps it sound: a reader's rv comes from its home
// cache, so rv can only be stale-LOW, which costs extra extensions but never
// admits a concurrent committer's stamps into a snapshot. Committers refresh
// their HOME cache from the global after committing (publish_home); the
// global is written only by GV6's own rules (an aborting reader's bump, an
// extending reader's lift), so cross-socket clock traffic is paid only when
// cross-socket data flow actually happened — the clock_publishes_per_commit
// metric the numa scenario reports.

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
  explicit GlobalVersionClock(GvMode mode) : mode_(mode) {}

  /// Cached (NUMA shard+clock) construction: GV6 whatever `mode` says, plus
  /// one lagging replica cell per socket of `topo`. Null topology degrades
  /// to the plain clock in `mode`.
  GlobalVersionClock(GvMode mode, const Topology* topo)
      : mode_(topo != nullptr ? GvMode::kGv6 : mode), topo_(topo) {
    if (topo_ != nullptr) {
      caches_ = std::vector<SocketCache>(topo_->socket_count());
    }
  }

  [[nodiscard]] bool cached() const { return !caches_.empty(); }

  /// Whether hardware commits store the clock cell inside their
  /// speculation window. GV6 never does: its stamps at clock+1 are admitted
  /// by the readers' lift-and-extend rule instead.
  [[nodiscard]] bool hw_writes_clock() const { return mode_ != GvMode::kGv6; }

  /// The cell backing the counter — hardware paths subscribe through this.
  [[nodiscard]] TmCell& cell() { return cell_; }

  /// Read-version sample. Cached mode reads the caller's socket cache:
  /// stale-low is safe (extra extensions at worst), and the load stays on a
  /// socket-local line.
  [[nodiscard]] TmWord read() const {
    if (cached()) {
      return caches_[home_socket()].cell.word.load(std::memory_order_acquire);
    }
    return cell_.word.load(std::memory_order_acquire);
  }

  /// Next write-version for a software commit. Under GV6 the clock itself is
  /// not advanced; the returned stamp is still strictly greater than any
  /// read-version sampled before the commit (every socket cache lags the
  /// global cell), which is all validation needs.
  TmWord next() {
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

  /// GV6 progress rule: a reader that aborts on validation advances the
  /// clock, and in cached mode lifts its home cache to the new value so its
  /// retry sees it immediately. GV1/GV4 keep no abort rule.
  void on_abort() {
    if (mode_ != GvMode::kGv6) return;
    const TmWord g = cell_.word.fetch_add(1, std::memory_order_acq_rel) + 1;
    count_global_publish();
    if (cached()) raise(home_cache(), g);
  }

  /// The read-version extension's catch-up step: raises the global cell to
  /// at least `stamp` — a CAS-max, so it never lowers the clock, writes
  /// nothing (and counts no publish) when the clock already covers the
  /// stamp, and counts exactly one global publish when it writes — then,
  /// in cached mode, raises the caller's home cache to the stamp as well.
  /// Afterwards read() >= stamp.
  void lift(TmWord stamp) {
    if (raise(cell_.word, stamp)) count_global_publish();
    if (cached()) raise(home_cache(), stamp);
  }

  /// Post-commit lazy propagation (cached mode): refresh the committer's
  /// HOME socket cache from the global cell. Never lifts a cache above the
  /// global, preserving the lagging-replica invariant. No-op otherwise.
  void publish_home() {
    if (!cached()) return;
    raise(home_cache(), cell_.word.load(std::memory_order_acquire));
    local_publishes_.fetch_add(1);
  }

  /// Bookkeeping hook for a hardware commit that stamped stripes: under
  /// GV1/GV4 the commit's in-transaction clock store IS a global publish;
  /// GV6 skipped the store, so only the home cache (if any) is refreshed.
  void note_hw_commit() {
    if (mode_ == GvMode::kGv6) {
      publish_home();
    } else {
      count_global_publish();
    }
  }

  /// Writes that hit the shared global cell (every socket pays coherence).
  /// Both tallies are per-thread slots: exact once the committers quiesce.
  [[nodiscard]] std::uint64_t global_publishes() const { return global_publishes_.load(); }
  /// Socket-local cache refreshes (cached mode only).
  [[nodiscard]] std::uint64_t local_publishes() const { return local_publishes_.load(); }

 private:
  struct alignas(kCacheLineBytes) SocketCache {
    TmCell cell;
  };

  [[nodiscard]] unsigned home_socket() const {
    return current_socket_of_thread(*topo_) %
           static_cast<unsigned>(caches_.size());
  }
  [[nodiscard]] std::atomic<TmWord>& home_cache() { return caches_[home_socket()].cell.word; }

  /// Monotonic CAS-max: never moves `w` backwards (concurrent raises race
  /// benignly). Callers never raise a cache above a value the global cell
  /// has held. Returns whether it wrote.
  static bool raise(std::atomic<TmWord>& w, TmWord v) {
    TmWord cur = w.load(std::memory_order_relaxed);
    while (cur < v) {
      if (w.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) return true;
    }
    return false;
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
