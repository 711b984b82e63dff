#pragma once

// Measurement drivers: multi-threaded throughput, the single-thread cycle
// breakdown (paper Fig. 2 bottom) with its TimedHandle, a footprint-sweep
// helper for capacity-path experiments, and the thread-affinity (pinning)
// helper behind --pin.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "core/rhtm.h"

namespace rhtm {

// ------------------------------------------------------------ thread pinning --

/// Thread-affinity policy for the measurement drivers:
///  * none    — leave placement to the OS scheduler (the default).
///  * compact — fill one socket's CPUs before moving to the next
///              (Topology::compact_cpu when discovery succeeds).
///  * scatter — round-robin across sockets first (Topology::scatter_cpu):
///              thread t lands on socket t % socket_count. On a one-socket
///              host that is compact's placement.
/// When topology discovery falls back to single-node, both modes degrade
/// to the index-striding pin_cpu_for below, where scatter alternates across
/// the CPU id halves (it warns once — on an SMT box the naive stride
/// interleaves hyperthread siblings, not sockets).
enum class PinMode : std::uint8_t { kNone, kCompact, kScatter };

[[nodiscard]] constexpr const char* to_string(PinMode m) {
  switch (m) {
    case PinMode::kNone: return "none";
    case PinMode::kCompact: return "compact";
    case PinMode::kScatter: return "scatter";
  }
  return "?";
}

/// Parses a canonical pin-mode name. Returns false on an unknown name.
[[nodiscard]] inline bool parse_pin_mode(const char* name, PinMode* out) {
  for (const PinMode m : {PinMode::kNone, PinMode::kCompact, PinMode::kScatter}) {
    if (std::strcmp(name, to_string(m)) == 0) {
      *out = m;
      return true;
    }
  }
  return false;
}

/// The CPU id a pin mode assigns to worker `tid` on an `ncpu`-CPU host.
/// Both modes are permutations of [0, ncpu) over any ncpu consecutive
/// tids, so no CPU is doubly assigned before every CPU is used once.
[[nodiscard]] inline unsigned pin_cpu_for(PinMode mode, unsigned tid, unsigned ncpu) {
  if (ncpu == 0) return 0;
  const unsigned t = tid % ncpu;
  if (mode == PinMode::kScatter) {
    // Even tids walk the lower half [0, ceil(N/2)), odd tids the upper
    // half [ceil(N/2), N) — a bijection for odd N too.
    const unsigned upper = (ncpu + 1) / 2;
    return t % 2 == 0 ? t / 2 : upper + t / 2;
  }
  return t;  // compact (and the don't-care value for none)
}

/// Pins the calling thread per `mode`. With a discovered topology the
/// target is the topology-derived absolute CPU (compact_cpu / scatter_cpu)
/// whenever that CPU is in this process's allowed set. Otherwise (single-node
/// fallback, taskset masks excluding the target) the pin_cpu_for index
/// selects into the CPUs this process is actually *allowed* to run on
/// (sched_getaffinity), not into [0, N) — so pinning still works under
/// container cpusets whose masks do not start at CPU 0. Where unsupported
/// (non-Linux builds, or a failing affinity syscall) it warns once per
/// process and becomes a no-op — measurements still run, just unpinned.
inline void pin_current_thread(PinMode mode, unsigned tid) {
  if (mode == PinMode::kNone) return;
  static std::atomic<bool> warned{false};
  const auto warn_once = [&](const char* why) {
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr, "warning: --pin=%s unsupported (%s); running unpinned\n",
                   to_string(mode), why);
    }
  };
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    warn_once("sched_getaffinity failed");
    return;
  }
  std::vector<unsigned> cpus;
  for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) {
    warn_once("empty affinity mask");
    return;
  }
  const Topology& topo = Topology::system();
  if (mode == PinMode::kScatter && !topo.discovered()) {
    static std::atomic<bool> warned_fallback{false};
    if (!warned_fallback.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "warning: --pin=scatter without discovered NUMA topology; "
                   "falling back to index striding (hyperthread siblings may "
                   "interleave before sockets fill)\n");
    }
  }
  unsigned target = cpus[pin_cpu_for(mode, tid, static_cast<unsigned>(cpus.size()))];
  if (topo.discovered()) {
    const unsigned want =
        mode == PinMode::kScatter ? topo.scatter_cpu(tid) : topo.compact_cpu(tid);
    if (want < CPU_SETSIZE && CPU_ISSET(want, &allowed)) target = want;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(target, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    warn_once("pthread_setaffinity_np failed");
  }
#else
  (void)tid;
  warn_once("no thread-affinity API on this platform");
#endif
}

struct ThroughputResult {
  std::uint64_t total_ops = 0;
  double seconds = 0;
  TxStats stats;

  /// aborts / (aborts + commits) — the paper's abort-ratio metric.
  [[nodiscard]] double abort_ratio() const {
    const double a = static_cast<double>(stats.aborts);
    const double c = static_cast<double>(stats.commits);
    return a + c > 0 ? a / (a + c) : 0.0;
  }
};

// ----------------------------------------------------- worker-pool substrate --

/// The deterministic per-thread driver seed: every measurement driver seeds
/// worker `tid`'s rng identically, so closed-loop and open-loop runs of the
/// same workload draw the same per-thread streams.
[[nodiscard]] inline std::uint64_t driver_thread_seed(unsigned tid) {
  return 0x853c49e6748fea9bull ^
         (static_cast<std::uint64_t>(tid) + 1) * 0x9e3779b97f4a7c15ull;
}

/// THE multi-thread measurement substrate, shared by every driver
/// (closed-loop run_throughput, the phased driver, the open-loop driver):
/// spawns `threads` workers, applies the pin policy, gives each a protocol
/// ThreadCtx over `tm` and a deterministically-seeded rng, releases them on
/// one start flag (no worker runs ahead while later ones are still being
/// spawned), joins, and returns the wall-clock seconds between the release
/// and the last join. `body(ctx, rng, tid)` is one worker's whole run.
template <class Tm, class Body>
double run_worker_pool(Tm& tm, unsigned threads, PinMode pin, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      pin_current_thread(pin, tid);
      typename Tm::ThreadCtx ctx(tm);
      // Register this worker's counters with the active metrics sampler (a
      // no-op when --timeline is off). Constructed after ctx so it
      // unregisters — folding the final counts into the sampler's retired
      // accumulator — before the stats it points at are destroyed.
      timeseries::ScopedStatsSource ts_source(&ctx.stats);
      Xoshiro256 rng(driver_thread_seed(tid));
      while (!go.load(std::memory_order_acquire)) {
        detail::cpu_relax();
      }
      body(ctx, rng, tid);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Drives `op(tm, ctx, rng, tid)` — one transaction per call — on `threads`
/// threads for `seconds`, aggregating per-thread TxStats. A body over the
/// shared worker-pool substrate: the deadline is checked between ops, so a
/// slow op overshoots by at most one op.
template <class Tm, class Op>
ThroughputResult run_throughput(Tm& tm, unsigned threads, double seconds, Op&& op,
                                PinMode pin = PinMode::kNone) {
  struct PerThread {
    std::uint64_t ops = 0;
    TxStats stats;
  };
  std::vector<PerThread> slots(threads);
  const double wall =
      run_worker_pool(tm, threads, pin, [&](auto& ctx, Xoshiro256& rng, unsigned tid) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
        std::uint64_t ops = 0;
        do {
          op(tm, ctx, rng, tid);
          ++ops;
        } while (std::chrono::steady_clock::now() < deadline);
        slots[tid].ops = ops;
        slots[tid].stats = ctx.stats;
      });

  ThroughputResult r;
  r.seconds = wall;
  for (const PerThread& s : slots) {
    r.total_ops += s.ops;
    r.stats.merge(s.stats);
  }
  return r;
}

// -------------------------------------------------- single-thread breakdown --

/// What one breakdown run counts besides the protocol's TxStats.
/// TimedHandle fills the access and barrier fields, run_breakdown the
/// transaction and body spans.
struct BreakdownCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_cycles = 0;   ///< inside timed read barriers
  std::uint64_t write_cycles = 0;  ///< inside timed write barriers
  std::uint64_t body_cycles = 0;   ///< inside the transaction body, all attempts
  std::uint64_t tx_cycles = 0;     ///< inside atomically(), all attempts
};

/// A transparent wrapper over any protocol handle that counts every access
/// and (per template flags) attributes its rdtsc span to the read/write
/// barrier buckets. A path whose accesses are not timed (kTimeReads /
/// kTimeWrites = false) reports zero barrier time by construction; its
/// accesses land in "private" time.
template <class Inner, bool kTimeReads, bool kTimeWrites>
class TimedHandle {
 public:
  TimedHandle(Inner& inner, BreakdownCounters& counters) : inner_(inner), c_(counters) {}

  TmWord load(const TmCell& c) {
    ++c_.reads;
    if constexpr (kTimeReads) {
      const std::uint64_t t0 = rdtsc();
      const TmWord v = inner_.load(c);
      c_.read_cycles += rdtsc() - t0;
      return v;
    } else {
      return inner_.load(c);
    }
  }

  void store(TmCell& c, TmWord v) {
    ++c_.writes;
    if constexpr (kTimeWrites) {
      const std::uint64_t t0 = rdtsc();
      inner_.store(c, v);
      c_.write_cycles += rdtsc() - t0;
    } else {
      inner_.store(c, v);
    }
  }

 private:
  Inner& inner_;
  BreakdownCounters& c_;
};

/// Single-thread cycle breakdown (paper Fig. 2 bottom). Percentages follow
/// the paper's table semantics: read/write = time inside the access
/// barriers (zero by construction for barrier-free paths), commit = begin/
/// commit machinery (time inside atomically() minus time inside the body),
/// private = body time not spent in barriers, intertx = everything between
/// transactions.
struct BreakdownResult {
  double read_pct = 0;
  double write_pct = 0;
  double commit_pct = 0;
  double private_pct = 0;
  double intertx_pct = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ops = 0;  ///< transactions in the measured window
  double seconds = 0;     ///< wall-clock length of the window
  TxStats stats;          ///< the window's decision counters
};

/// The protocol as run_breakdown hands it to an op: atomically() times the
/// whole call and the body, and runs the body through a TimedHandle.
template <class Tm, bool kTimeReads, bool kTimeWrites>
struct TimedTm {
  Tm& tm;
  BreakdownCounters& c;

  template <class Body>
  void atomically(typename Tm::ThreadCtx& ctx, Body&& body) {
    const std::uint64_t t0 = rdtsc();
    tm.atomically(ctx, [&](auto& tx) {
      const std::uint64_t b0 = rdtsc();
      TimedHandle<std::decay_t<decltype(tx)>, kTimeReads, kTimeWrites> timed(tx, c);
      body(timed);
      c.body_cycles += rdtsc() - b0;
    });
    c.tx_cycles += rdtsc() - t0;
  }
};

/// Runs `op(tm, ctx, rng, tid)` — the one-transaction op run_throughput
/// drives — single-threaded for `seconds` and attributes its cycles. What
/// the op does outside atomically() (its input draws) lands in intertx;
/// reads are timed when kTimeReads, writes when kTimeWrites. One untimed
/// warm-up transaction (first touch, lazy growth) precedes the window.
template <bool kTimeReads, bool kTimeWrites, class Tm, class Op>
BreakdownResult run_breakdown(Tm& tm, double seconds, Op&& op) {
  using clock = std::chrono::steady_clock;
  typename Tm::ThreadCtx ctx(tm);
  Xoshiro256 rng(0x9e3779b97f4a7c15ull);
  BreakdownCounters c;
  TimedTm<Tm, kTimeReads, kTimeWrites> timed{tm, c};
  op(timed, ctx, rng, 0u);
  c = {};
  const TxStats before = ctx.stats;

  BreakdownResult b;
  const auto start = clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const std::uint64_t c0 = rdtsc();
  auto now = start;
  do {
    op(timed, ctx, rng, 0u);
    ++b.ops;
    now = clock::now();
  } while (now < deadline);
  const std::uint64_t total = rdtsc() - c0;
  b.seconds = std::chrono::duration<double>(now - start).count();

  if (total > 0) {
    const auto pct = [&](std::uint64_t cycles) {
      return 100.0 * static_cast<double>(cycles) / static_cast<double>(total);
    };
    const std::uint64_t barrier = c.read_cycles + c.write_cycles;
    const std::uint64_t commit = c.tx_cycles > c.body_cycles ? c.tx_cycles - c.body_cycles : 0;
    const std::uint64_t priv = c.body_cycles > barrier ? c.body_cycles - barrier : 0;
    const std::uint64_t intertx = total > c.tx_cycles ? total - c.tx_cycles : 0;
    b.read_pct = pct(c.read_cycles);
    b.write_pct = pct(c.write_cycles);
    b.commit_pct = pct(commit);
    b.private_pct = pct(priv);
    b.intertx_pct = pct(intertx);
  }
  b.reads = c.reads;
  b.writes = c.writes;
  b.stats = tx_stats_delta(ctx.stats, before);
  return b;
}

/// Runs `op` `ops` times single-threaded and returns the TxStats delta —
/// the building block for footprint sweeps that classify which execution
/// path (fast / RH1-slow / RH2 / slow-slow) ends up committing.
template <class Tm, class Op>
TxStats run_capacity_pressure(Tm& tm, typename Tm::ThreadCtx& ctx, int ops, Op&& op) {
  const TxStats before = ctx.stats;
  Xoshiro256 rng(0xda3e39cb94b95bdbull);
  for (int i = 0; i < ops; ++i) {
    op(tm, ctx, rng, 0u);
  }
  return tx_stats_delta(ctx.stats, before);
}

}  // namespace rhtm
