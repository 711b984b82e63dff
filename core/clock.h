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

#include <atomic>
#include <cstdint>

#include "core/cell.h"
#include "core/sharded_counter.h"

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

  /// Whether hardware commits store the clock cell inside their
  /// speculation window. GV6 never does: its stamps at clock+1 are admitted
  /// by the readers' lift-and-extend rule instead.
  [[nodiscard]] bool hw_writes_clock() const { return mode_ != GvMode::kGv6; }

  /// The cell backing the counter — hardware paths subscribe through this.
  [[nodiscard]] TmCell& cell() { return cell_; }

  /// Read-version sample.
  [[nodiscard]] TmWord read() const { return cell_.word.load(std::memory_order_acquire); }

  /// Next write-version for a software commit. Under GV6 the clock itself is
  /// not advanced; the returned stamp is still strictly greater than any
  /// read-version sampled before the commit, which is all validation needs.
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
  /// clock. GV1/GV4 keep no abort rule.
  void on_abort() {
    if (mode_ != GvMode::kGv6) return;
    cell_.word.fetch_add(1, std::memory_order_acq_rel);
    count_global_publish();
  }

  /// The read-version extension's catch-up step: raises the clock to at
  /// least `stamp` — a CAS-max, so it never lowers the clock, writes
  /// nothing (and counts no publish) when the clock already covers the
  /// stamp, and counts exactly one global publish when it writes.
  /// Afterwards read() >= stamp.
  void lift(TmWord stamp) {
    if (raise(cell_.word, stamp)) count_global_publish();
  }

  /// Bookkeeping hook for a hardware commit that stamped stripes: under
  /// GV1/GV4 the commit's in-transaction clock store IS a global publish;
  /// GV6 skipped the store.
  void note_hw_commit() {
    if (mode_ != GvMode::kGv6) count_global_publish();
  }

  /// Writes of the clock cell. A per-thread-slot tally: exact once the
  /// committers quiesce.
  [[nodiscard]] std::uint64_t global_publishes() const { return global_publishes_.load(); }

 private:
  /// Monotonic CAS-max: never moves `w` backwards (concurrent raises race
  /// benignly). Returns whether it wrote.
  static bool raise(std::atomic<TmWord>& w, TmWord v) {
    TmWord cur = w.load(std::memory_order_relaxed);
    while (cur < v) {
      if (w.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) return true;
    }
    return false;
  }

  void count_global_publish() { global_publishes_.fetch_add(1); }

  GvMode mode_;
  TmCell cell_;
  ShardedCounter global_publishes_;
};

}  // namespace rhtm
