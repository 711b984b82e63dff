#pragma once

// Transaction event tracing — the flight recorder behind --trace.
//
// Every protocol ThreadCtx may carry a TraceRing*: a PER-THREAD, fixed-
// capacity (power-of-two) ring of TSC-timestamped 16-byte events recording
// the full transaction lifecycle — begin, hardware attempt, abort with its
// AbortCause, tier escalation (fast -> RH1-slow -> RH2 -> slow-slow),
// ContentionManager decisions (adaptive software-mode enter/exit and the
// periodic hardware re-probe), the durable commit phases (log/mark/apply),
// and commit with the tier that finally won.
//
// Design constraints, in order:
//
//  * Disabled must be free. A universe without a tracer hands every
//    ThreadCtx a null ring, and every emission site is one inlined
//    `if (ring != nullptr)` — a never-taken, perfectly predicted branch
//    (bench/micro_barriers.cpp carries the overhead series that pins this).
//  * Enabled must not synchronize. Each ring has exactly one producer (the
//    owning thread); recording is a TSC read plus one 16-byte store and a
//    release bump of the head. No locks, no CAS, no false sharing with
//    other rings (each ring owns its buffer).
//  * Wrap must be exact. The ring keeps the LAST `capacity` events; the
//    monotone head counts every emit ever, so dropped() == head - capacity
//    is exact-by-construction accounting, not a sampled estimate.
//
// The Tracer is the per-run registry: rings are acquired (one per
// ThreadCtx; a thread that builds N contexts over a traced run owns N
// rings, each a separate track in the trace) and stay owned by the Tracer
// so write_binary() can walk them after the workers have joined. Reading a
// ring concurrently with its producer (the flight-recorder anomaly dump)
// is best-effort by design: the release/acquire head handshake makes every
// event below the observed head fully written.
//
// write_binary() dumps the rings as they are in memory (the file format is
// documented at FileHeader); scripts/trace_summary.py validates the file,
// attributes time per tier, and renders it as Chrome trace-event JSON for
// Perfetto.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/stats.h"

namespace rhtm::trace {

/// What happened. The 8-bit payload `a` is an AbortCause for kAbort, an
/// ExecPath for kHwAttempt / kEscalate / kCommit, and unused otherwise.
enum class EventKind : std::uint8_t {
  kTxBegin = 1,   ///< atomically() entered; arms the duration baseline
  kHwAttempt,     ///< one hardware attempt starts (a = ExecPath, arg = attempt #)
  kAbort,         ///< an attempt died (a = AbortCause, arg = cycles since begin)
  kEscalate,      ///< the transaction moved down a tier (a = ExecPath entered)
  kFallbackLock,  ///< non-speculative lock fallback taken (HtmOnly / TATAS / StdHyTM)
  kCommit,        ///< the transaction committed (a = ExecPath tier, arg = cycles since begin)
  kSwModeEnter,   ///< adaptive CM: failure streak crossed sw_streak, hardware off
  kSwModeExit,    ///< adaptive CM: a hardware probe committed, hardware back on
  kSwModeProbe,   ///< adaptive CM: this transaction re-probes hardware
  kDurLog,        ///< durable commit phase 1 done (arg = cycles in phase)
  kDurMark,       ///< durable commit phase 2 done — the durability point
  kDurApply,      ///< durable commit phase 3 done
};

/// Snake-case event names: the tests' and scripts/trace_summary.py's vocabulary.
[[nodiscard]] inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kHwAttempt: return "hw_attempt";
    case EventKind::kAbort: return "abort";
    case EventKind::kEscalate: return "escalate";
    case EventKind::kFallbackLock: return "fallback_lock";
    case EventKind::kCommit: return "commit";
    case EventKind::kSwModeEnter: return "sw_enter";
    case EventKind::kSwModeExit: return "sw_exit";
    case EventKind::kSwModeProbe: return "sw_probe";
    case EventKind::kDurLog: return "dur_log";
    case EventKind::kDurMark: return "dur_mark";
    case EventKind::kDurApply: return "dur_apply";
  }
  return "?";
}

/// One recorded event. Exactly 16 bytes so a default ring is cache-friendly
/// and capacity maths stay trivial.
struct Event {
  std::uint64_t tsc = 0;   ///< rdtsc() at emission
  std::uint32_t arg = 0;   ///< kind-specific payload (cycles, attempt #)
  std::uint8_t kind = 0;   ///< EventKind
  std::uint8_t a = 0;      ///< AbortCause / ExecPath payload
  std::uint16_t ring = 0;  ///< owning ring id (redundant but makes merges self-describing)

  [[nodiscard]] EventKind event_kind() const { return static_cast<EventKind>(kind); }
};
static_assert(sizeof(Event) == 16, "trace events are exactly 16 bytes");

/// Single-producer flight-recorder ring. The owning thread emits; anyone
/// may read events below the acquired head after (or best-effort during)
/// the run.
class TraceRing {
 public:
  TraceRing(std::size_t capacity_pow2, std::uint16_t id)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1), id_(id) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one event. Producer-thread only.
  void emit(EventKind k, std::uint8_t a = 0, std::uint32_t arg = 0) {
    emit_at(rdtsc(), k, a, arg);
  }

  /// Transaction start: records kTxBegin and arms the cycles-since-begin
  /// baseline the abort/commit events carry (so a commit whose begin event
  /// was wrapped away still reconstructs its exact duration).
  void tx_begin() {
    begin_tsc_ = rdtsc();
    emit_at(begin_tsc_, EventKind::kTxBegin, 0, 0);
  }

  /// Cycles since the last tx_begin(), saturated to 32 bits (a transaction
  /// longer than ~1 s at 4 GHz caps; slices that long are off-scale anyway).
  [[nodiscard]] std::uint32_t cycles_since_begin() const {
    const std::uint64_t d = rdtsc() - begin_tsc_;
    return d > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(d);
  }

  [[nodiscard]] std::uint16_t id() const { return id_; }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  /// Total events ever emitted (monotone, never wraps in practice).
  [[nodiscard]] std::uint64_t total() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events still resident (== min(total, capacity)).
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t h = total();
    return h < capacity() ? static_cast<std::size_t>(h) : capacity();
  }
  /// Events overwritten by wrap — exact: total() - size().
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t h = total();
    return h > capacity() ? h - capacity() : 0;
  }

  /// The i-th resident event, OLDEST first (i in [0, size())).
  [[nodiscard]] const Event& event(std::size_t i) const {
    const std::uint64_t h = total();
    const std::uint64_t first = h > capacity() ? h - capacity() : 0;
    return buf_[(first + i) & mask_];
  }

 private:
  void emit_at(std::uint64_t tsc, EventKind k, std::uint8_t a, std::uint32_t arg) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Event& e = buf_[h & mask_];
    e.tsc = tsc;
    e.arg = arg;
    e.kind = static_cast<std::uint8_t>(k);
    e.a = a;
    e.ring = id_;
    // Release-publish the slot: a concurrent best-effort reader (the
    // anomaly flight dump) that acquires the head sees fully-written
    // events below it.
    head_.store(h + 1, std::memory_order_release);
  }

  std::vector<Event> buf_;
  const std::size_t mask_;
  const std::uint16_t id_;
  std::uint64_t begin_tsc_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// The largest ring a tracer builds: 2^22 events, 64 MiB per ring.
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 22;

struct TracerConfig {
  /// Events per ring, rounded up to a power of two in [16, kMaxRingCapacity].
  std::size_t ring_capacity = std::size_t{1} << 14;
  std::size_t max_rings = 4096;  ///< registration ceiling; beyond it contexts run untraced
};

/// The per-run trace registry: owns every ring, plus the TSC->wall-clock
/// calibration anchor the trace file carries for timestamp conversion.
class Tracer {
 public:
  explicit Tracer(TracerConfig cfg = {}) : cfg_(cfg) {
    cfg_.ring_capacity = std::bit_ceil(
        std::clamp(cfg_.ring_capacity, std::size_t{16}, kMaxRingCapacity));
    tsc0_ = rdtsc();
    wall0_ = std::chrono::steady_clock::now();
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a new ring (one per protocol ThreadCtx). Returns nullptr —
  /// context runs untraced — once max_rings registrations exist; the denial
  /// is counted so the trace file can say coverage was capped.
  [[nodiscard]] TraceRing* acquire_ring() {
    const std::lock_guard<std::mutex> lk(mu_);
    if (rings_.size() >= cfg_.max_rings) {
      ++denied_;
      return nullptr;
    }
    rings_.push_back(std::make_unique<TraceRing>(
        cfg_.ring_capacity, static_cast<std::uint16_t>(rings_.size())));
    return rings_.back().get();
  }

  template <class Fn>
  void for_each_ring(Fn&& fn) const {
    const std::lock_guard<std::mutex> lk(mu_);
    for (const auto& r : rings_) fn(*r);
  }

  [[nodiscard]] std::size_t ring_count() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return rings_.size();
  }
  [[nodiscard]] std::uint64_t denied_rings() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return denied_;
  }
  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for_each_ring([&](const TraceRing& r) { n += r.total(); });
    return n;
  }
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for_each_ring([&](const TraceRing& r) { n += r.dropped(); });
    return n;
  }

  /// Every resident event across every ring, merged into one timeline
  /// sorted by TSC (stable, so each ring's own order is preserved among
  /// equal stamps). The cross-thread view the invariant tests and the
  /// summary tooling reason over.
  [[nodiscard]] std::vector<Event> merged_events() const {
    std::vector<Event> all;
    for_each_ring([&](const TraceRing& r) {
      for (std::size_t i = 0; i < r.size(); ++i) all.push_back(r.event(i));
    });
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& x, const Event& y) { return x.tsc < y.tsc; });
    return all;
  }

  [[nodiscard]] std::uint64_t tsc0() const { return tsc0_; }

  /// TSC ticks per second, measured against the anchor taken at
  /// construction. If almost no wall time has passed (a unit test), spins
  /// out a ~2 ms baseline first so the rate is never a division by noise.
  [[nodiscard]] double tsc_hz() const {
    for (;;) {
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0_)
                            .count();
      if (dt >= 0.002) return static_cast<double>(rdtsc() - tsc0_) / dt;
      detail::cpu_relax();
    }
  }

  [[nodiscard]] const TracerConfig& config() const { return cfg_; }

 private:
  TracerConfig cfg_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::uint64_t denied_ = 0;
  std::uint64_t tsc0_ = 0;
  std::chrono::steady_clock::time_point wall0_;
};

// -------------------------------------------------------------- the file --
// --trace=FILE's format, in native byte order: one FileHeader, then per
// ring (in registration order) a RingHeader followed by its `resident`
// Events, oldest first — the ring's memory, 16 bytes an event. The file is
// exactly sizeof(FileHeader) + rings * sizeof(RingHeader) + 16 * (resident
// events) bytes. scripts/trace_summary.py is its reader (little-endian).

inline constexpr char kFileMagic[8] = {'R', 'H', 'T', 'M', 'T', 'R', 'C', '\0'};
inline constexpr std::uint32_t kFileVersion = 1;

struct FileHeader {
  char magic[8] = {};            ///< kFileMagic
  std::uint32_t version = 0;     ///< kFileVersion
  std::uint32_t rings = 0;       ///< RingHeaders that follow
  double tsc_hz = 0;             ///< Tracer::tsc_hz() at write time
  std::uint64_t tsc0 = 0;        ///< Tracer::tsc0(): the timeline's origin
  std::uint64_t events = 0;      ///< events ever emitted, over every ring
  std::uint64_t dropped = 0;     ///< events overwritten by wrap — exact
  std::uint64_t denied_rings = 0;  ///< contexts that ran untraced (max_rings)
};
static_assert(sizeof(FileHeader) == 56, "trace file header is 56 bytes");

struct RingHeader {
  std::uint16_t id = 0;        ///< TraceRing::id(); every event's `ring`
  std::uint16_t pad = 0;
  std::uint32_t resident = 0;  ///< Events that follow (total - dropped)
  std::uint64_t total = 0;     ///< events this ring ever emitted
};
static_assert(sizeof(RingHeader) == 16, "trace ring header is 16 bytes");

/// Writes `tracer` to `path` in the format above: one fwrite of events per
/// ring, no whole-file buffer, header counts patched in last. Safe to call
/// while producers still emit (the anomaly dump): each ring's count is read
/// once and its events best-effort, like every live read. Returns true on
/// success.
inline bool write_binary(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  FileHeader h;
  std::memcpy(h.magic, kFileMagic, sizeof h.magic);
  h.version = kFileVersion;
  h.tsc_hz = tracer.tsc_hz();
  h.tsc0 = tracer.tsc0();
  h.denied_rings = tracer.denied_rings();
  bool ok = std::fwrite(&h, sizeof h, 1, f) == 1;
  std::vector<Event> events;
  tracer.for_each_ring([&](const TraceRing& r) {
    RingHeader rh;
    rh.id = r.id();
    rh.total = r.total();
    rh.resident = static_cast<std::uint32_t>(std::min<std::uint64_t>(rh.total, r.capacity()));
    events.resize(rh.resident);
    for (std::size_t i = 0; i < events.size(); ++i) events[i] = r.event(i);
    ok = ok && std::fwrite(&rh, sizeof rh, 1, f) == 1 &&
         std::fwrite(events.data(), sizeof(Event), events.size(), f) == events.size();
    ++h.rings;
    h.events += rh.total;
    h.dropped += rh.total - rh.resident;
  });
  ok = ok && std::fseek(f, 0, SEEK_SET) == 0 && std::fwrite(&h, sizeof h, 1, f) == 1;
  return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------- emission helpers --
// THE disabled-path contract: each helper is one inlined null check. Every
// protocol emission site calls one of these with its ThreadCtx's ring.

inline void tx_begin(TraceRing* r) {
  if (r != nullptr) r->tx_begin();
}
inline void attempt(TraceRing* r, ExecPath p, std::uint32_t n = 0) {
  if (r != nullptr) r->emit(EventKind::kHwAttempt, static_cast<std::uint8_t>(p), n);
}
inline void abort(TraceRing* r, AbortCause c) {
  if (r != nullptr) {
    r->emit(EventKind::kAbort, static_cast<std::uint8_t>(c), r->cycles_since_begin());
  }
}
inline void escalate(TraceRing* r, ExecPath to) {
  if (r != nullptr) r->emit(EventKind::kEscalate, static_cast<std::uint8_t>(to));
}
inline void fallback_lock(TraceRing* r) {
  if (r != nullptr) r->emit(EventKind::kFallbackLock);
}
inline void commit(TraceRing* r, ExecPath tier) {
  if (r != nullptr) {
    r->emit(EventKind::kCommit, static_cast<std::uint8_t>(tier),
            r->cycles_since_begin());
  }
}
inline void cm_event(TraceRing* r, EventKind k) {
  if (r != nullptr) r->emit(k);
}
/// One durable phase completed; call with the phase's own rdtsc span.
inline void durable_phase(TraceRing* r, EventKind k, std::uint64_t cycles) {
  if (r != nullptr) {
    r->emit(k, 0,
            cycles > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(cycles));
  }
}

// ---------------------------------------------------------- anomaly hook --
// Flight-recorder dump trigger: pmem kill points and the sticky redo-log
// overflow call anomaly(reason); the bench driver (run_all) installs a hook
// that snapshots the live trace to disk before the process dies / the run
// degrades. A plain function pointer so arming is one atomic store and the
// disarmed path is one load.

using AnomalyFn = void (*)(const char* reason);
inline std::atomic<AnomalyFn> g_anomaly_hook{nullptr};

inline void set_anomaly_hook(AnomalyFn fn) {
  g_anomaly_hook.store(fn, std::memory_order_release);
}

inline void anomaly(const char* reason) {
  if (const AnomalyFn fn = g_anomaly_hook.load(std::memory_order_acquire)) fn(reason);
}

}  // namespace rhtm::trace
