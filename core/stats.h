#pragma once

// Per-thread transaction statistics, the execution-path / abort-cause
// taxonomies shared by every protocol, the calibrated abort injector, and
// the cycle counter used by the breakdown instrumentation.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/rng.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace rhtm {

/// Cycle counter for the breakdown instrumentation. On x86 this is rdtsc;
/// elsewhere it falls back to a nanosecond clock read (same units per run,
/// which is all the percentage breakdown needs).
inline std::uint64_t rdtsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

/// Which path finally committed a transaction (or was attempted).
enum class ExecPath : unsigned {
  kHtm,          ///< plain hardware transaction (HtmOnly / StandardHyTM / hybrids' HW mode)
  kRh1Fast,      ///< RH1 fast path: uninstrumented body in one hardware transaction
  kRh1Slow,      ///< RH1 slow path: software body + reduced hardware commit
  kRh2Slow,      ///< RH2 slow path: visible reads + write-set-only hardware commit
  kRh2SlowSlow,  ///< all-software fallback commit (stripe locks, no hardware)
  kStm,          ///< pure STM path (TL2 / NOrec software / phased software mode)
  kCount
};

/// Snake-case path names, used as metric keys in the JSON bench reports.
[[nodiscard]] inline const char* to_string(ExecPath p) {
  switch (p) {
    case ExecPath::kHtm: return "htm";
    case ExecPath::kRh1Fast: return "rh1_fast";
    case ExecPath::kRh1Slow: return "rh1_slow";
    case ExecPath::kRh2Slow: return "rh2_slow";
    case ExecPath::kRh2SlowSlow: return "rh2_slow_slow";
    case ExecPath::kStm: return "stm";
    case ExecPath::kCount: break;
  }
  return "?";
}

/// Why an attempt aborted.
enum class AbortCause : unsigned {
  kHtmConflict,    ///< hardware conflict (sim: commit validation failed)
  kHtmCapacity,    ///< hardware read/write budget exceeded
  kHtmExplicit,    ///< explicit abort from inside the hardware transaction
  kInjected,       ///< calibrated injection (emulated contention)
  kStmValidation,  ///< software read-set / snapshot validation failed
  kStmLocked,      ///< software path hit a locked stripe / commit lock
  kCount
};

/// Snake-case cause names, used as metric keys in the JSON bench reports.
[[nodiscard]] inline const char* to_string(AbortCause c) {
  switch (c) {
    case AbortCause::kHtmConflict: return "htm_conflict";
    case AbortCause::kHtmCapacity: return "htm_capacity";
    case AbortCause::kHtmExplicit: return "htm_explicit";
    case AbortCause::kInjected: return "injected";
    case AbortCause::kStmValidation: return "stm_validation";
    case AbortCause::kStmLocked: return "stm_locked";
    case AbortCause::kCount: break;
  }
  return "?";
}

namespace detail {

/// One counter's current value, read atomically (relaxed): another thread
/// may be counting it.
[[nodiscard]] inline std::uint64_t load_counter(const std::uint64_t& c) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(c))
      .load(std::memory_order_relaxed);
}

/// The owning thread's increment: a relaxed load and store, no RMW — one
/// writer per counter, so nothing can interleave.
inline void bump_counter(std::uint64_t& c) {
  std::atomic_ref<std::uint64_t>(c).store(load_counter(c) + 1, std::memory_order_relaxed);
}

}  // namespace detail

/// Per-thread decision counters: commits and aborts, per path and per
/// cause. Owned by a protocol ThreadCtx; merged by the driver.
///
/// Each counter is a single-writer relaxed atomic: only the owning thread
/// counts (count_*), and any thread may read it live through merge() —
/// the metrics sampler (core/timeseries.h) does, while workers run.
struct TxStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t commits_by_path[static_cast<std::size_t>(ExecPath::kCount)] = {};
  std::uint64_t attempts_by_path[static_cast<std::size_t>(ExecPath::kCount)] = {};
  std::uint64_t aborts_by_cause[static_cast<std::size_t>(AbortCause::kCount)] = {};

  void count_attempt(ExecPath p) {
    detail::bump_counter(attempts_by_path[static_cast<std::size_t>(p)]);
  }
  void count_commit(ExecPath p) {
    detail::bump_counter(commits);
    detail::bump_counter(commits_by_path[static_cast<std::size_t>(p)]);
  }
  void count_abort(AbortCause c) {
    detail::bump_counter(aborts);
    detail::bump_counter(aborts_by_cause[static_cast<std::size_t>(c)]);
  }

  /// Adds `other`'s counters, each read atomically, so `other` may be a
  /// live worker's stats.
  void merge(const TxStats& other) {
    commits += detail::load_counter(other.commits);
    aborts += detail::load_counter(other.aborts);
    for (std::size_t i = 0; i < static_cast<std::size_t>(ExecPath::kCount); ++i) {
      commits_by_path[i] += detail::load_counter(other.commits_by_path[i]);
      attempts_by_path[i] += detail::load_counter(other.attempts_by_path[i]);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(AbortCause::kCount); ++i) {
      aborts_by_cause[i] += detail::load_counter(other.aborts_by_cause[i]);
    }
  }
};

/// Calibrated abort injection (paper §3.1): hardware-mode series replay the
/// abort ratio measured from a TL2 run of the same configuration. Injecting
/// per-attempt with probability r reproduces an aborts/(aborts+commits)
/// ratio of r under retry.
class AbortInjector {
 public:
  constexpr AbortInjector() = default;
  constexpr explicit AbortInjector(std::uint32_t rate_bp) : rate_bp_(rate_bp) {}

  static AbortInjector from_ratio(double ratio) {
    if (ratio < 0.0) ratio = 0.0;
    if (ratio > 0.98) ratio = 0.98;  // leave commit probability for progress
    return AbortInjector(static_cast<std::uint32_t>(ratio * 10000.0 + 0.5));
  }

  [[nodiscard]] constexpr std::uint32_t rate_bp() const { return rate_bp_; }
  [[nodiscard]] bool fire(Xoshiro256& rng) const {
    return rate_bp_ != 0 && rng.chance_bp(rate_bp_);
  }

 private:
  std::uint32_t rate_bp_ = 0;
};

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

inline constexpr std::uint64_t kFirstCtxSeed = 0x2545f4914f6cdd1dull;
inline std::atomic<std::uint64_t> g_ctx_seed{kFirstCtxSeed};

/// Distinct seed for each protocol ThreadCtx RNG (deterministic sequence).
inline std::uint64_t next_ctx_seed() {
  return g_ctx_seed.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
}

/// Restarts the ctx seed sequence, so a single-threaded replay repeated in
/// one process sees the same seeds as a fresh process.
inline void reset_ctx_seeds() { g_ctx_seed.store(kFirstCtxSeed, std::memory_order_relaxed); }

}  // namespace detail

}  // namespace rhtm
