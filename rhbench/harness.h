#pragma once

// Measurement machinery of the rhtm benchmark: clocks, span accounting
// around the library's public calls, the handle wrapper every workload op
// runs through, and the order statistics the report uses. Spans are
// recorded from here, outside the library, around three public boundaries:
// HybridTm::atomically, the body the protocol invokes once per attempt, and
// the handle load/store the protocol passes to that body.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/cell.h"
#include "core/stats.h"

namespace rhbench {

using rhtm::TmCell;
using rhtm::TmWord;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Cost of the span timer itself. Every span pays `null_ticks` inside its
/// own interval; a span nested in another adds `nested_ticks` to its
/// parent. Both are subtracted when span totals become per-layer times.
struct TimerCost {
  double ns_per_tick = 1.0;
  double null_ticks = 0.0;
  double nested_ticks = 0.0;
};

/// Measures the tick rate against steady_clock and the span timer's own
/// cost (medians of many back-to-back reads).
[[nodiscard]] inline TimerCost calibrate_timer() {
  TimerCost c;
  const std::uint64_t n0 = now_ns();
  const std::uint64_t t0 = rhtm::rdtsc();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t n1 = now_ns();
  const std::uint64_t t1 = rhtm::rdtsc();
  c.ns_per_tick = static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);

  constexpr int kSamples = 4001;
  std::vector<std::uint64_t> null_span(kSamples);
  std::vector<std::uint64_t> outer_span(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t a = rhtm::rdtsc();
    const std::uint64_t b = rhtm::rdtsc();
    null_span[i] = b - a;
  }
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t a = rhtm::rdtsc();
    volatile std::uint64_t inner = rhtm::rdtsc();
    inner = rhtm::rdtsc() - inner;
    const std::uint64_t b = rhtm::rdtsc();
    outer_span[i] = b - a;
  }
  std::nth_element(null_span.begin(), null_span.begin() + kSamples / 2, null_span.end());
  std::nth_element(outer_span.begin(), outer_span.begin() + kSamples / 2, outer_span.end());
  c.null_ticks = static_cast<double>(null_span[kSamples / 2]);
  c.nested_ticks = std::max(0.0, static_cast<double>(outer_span[kSamples / 2]) - c.null_ticks);
  return c;
}

/// Per-thread span totals of one traced round. Barrier slots: 0 = the
/// fast-path handle (uninstrumented hardware access), 1 = a software
/// handle (TL2 or RH2 barrier).
struct LayerAcc {
  std::uint64_t tx_ticks = 0, txs = 0;
  std::uint64_t body_ticks = 0, bodies = 0;
  std::uint64_t read_ticks[2] = {}, reads[2] = {};
  std::uint64_t write_ticks[2] = {}, writes[2] = {};
  std::uint64_t intertx_ticks = 0, intertx = 0;

  void merge(const LayerAcc& o) {
    tx_ticks += o.tx_ticks;
    txs += o.txs;
    body_ticks += o.body_ticks;
    bodies += o.bodies;
    for (int i = 0; i < 2; ++i) {
      read_ticks[i] += o.read_ticks[i];
      reads[i] += o.reads[i];
      write_ticks[i] += o.write_ticks[i];
      writes[i] += o.writes[i];
    }
    intertx_ticks += o.intertx_ticks;
    intertx += o.intertx;
  }
};

/// RAII span: adds its duration to `ticks` even when the timed call
/// unwinds (an aborting barrier or body throws through it).
class Span {
 public:
  Span(std::uint64_t& ticks, std::uint64_t& count) : ticks_(ticks), t0_(rhtm::rdtsc()) {
    ++count;
  }
  ~Span() { ticks_ += rhtm::rdtsc() - t0_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t& ticks_;
  std::uint64_t t0_;
};

/// Software barriers (TL2 and RH2 handles) carry the transaction's read
/// version `rv`; the RH1 fast-path handle does not.
template <class Handle>
inline constexpr bool kSoftwareHandle = requires(Handle& h) { h.rv; };

/// The last store an op issued, whether or not it reached the protocol.
struct StoreLog {
  TmCell* cell = nullptr;
  TmWord value = 0;
};

/// Oracle self-check fault: when `every` is nonzero, every `every`-th store
/// of a thread is silently dropped before it reaches the protocol.
struct StoreDropper {
  std::uint64_t every = 0;
  std::uint64_t count = 0;
  bool drop() { return every != 0 && ++count % every == 0; }
};

/// The handle a workload op sees: forwards to the protocol's handle,
/// logs the last store for the oracles, applies the self-check fault, and
/// — in traced rounds only — times each barrier call.
template <class Inner, bool kTraced>
struct OpHandle {
  static constexpr int kSlot = kSoftwareHandle<Inner> ? 1 : 0;

  Inner& inner;
  LayerAcc& acc;
  StoreLog& last;
  StoreDropper& dropper;

  TmWord load(const TmCell& c) {
    if constexpr (kTraced) {
      Span s(acc.read_ticks[kSlot], acc.reads[kSlot]);
      return inner.load(c);
    } else {
      return inner.load(c);
    }
  }

  void store(TmCell& c, TmWord v) {
    last = {&c, v};
    if (dropper.drop()) return;
    if constexpr (kTraced) {
      Span s(acc.write_ticks[kSlot], acc.writes[kSlot]);
      inner.store(c, v);
    } else {
      inner.store(c, v);
    }
  }
};

/// Value at quantile q of `v` (nearest rank; reorders v). 0 when empty.
[[nodiscard]] inline double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

[[nodiscard]] inline double ratio_or_zero(double num, double den) {
  return den != 0 ? num / den : 0.0;
}

/// Median (mean of the middle pair when the count is even); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Saturating tick count -> u32 latency sample (clamps above ~1 s).
[[nodiscard]] inline std::uint32_t sample(std::uint64_t ticks) {
  return ticks > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(ticks);
}

/// splitmix64 finalizer: independent per-round, per-thread streams from
/// the one workload seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                            std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace rhbench
