// rhbench — the rhtm benchmark driver.
//
//   rhbench --workload <rbtree_fastpath|kv_service|kv_durable> --seed N
//           --seconds S --trace 0|1 [--drop-store-every K] [--closed-loop]
//           [--git-sha SHA]
//
// A run is a sequence of rounds. Each round builds a fresh system under
// test (universe + data structure + persistent domain; that construction is
// the timed set-up), starts three pinned workers, warms up, measures for
// S / rounds seconds, stops, and runs the workload's oracles on the
// quiescent state. The measured time is cut into 100 ms windows; throughput
// and latency percentiles are computed per window and reported as the
// median over every window of the run, so one host stall spoils a window,
// not the run.
//
// With --trace 1 the rounds alternate untraced and traced. Traced rounds
// time the library's public calls from this file (atomically, the body,
// the handle load/store) and read its public counters; the per-layer
// metrics come from them, and the untraced rounds give the tracing
// overhead. Output: human-readable lines, then one JSON result line.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/htm_rtm.h"
#include "core/rh1.h"
#include "rhbench/harness.h"
#include "rhbench/workloads.h"

#ifndef RHBENCH_BUILD_TYPE
#define RHBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RHBENCH_CXX_FLAGS
#define RHBENCH_CXX_FLAGS "unknown"
#endif

namespace rhbench {
namespace {

constexpr unsigned kThreads = 3;                  ///< nproc - 1 on a 4-core host
constexpr double kRoundSeconds = 1.0;             ///< target measured time per round
constexpr double kWindowNs = 100e6;               ///< statistics window
constexpr double kWarmupFraction = 0.1;           ///< of each round's measured time
constexpr double kMaxWaitNs = 1e9;                ///< open loop sheds older requests
constexpr std::uint64_t kLatencySampleMask = 15;  ///< closed loops time every 16th op
constexpr std::uint64_t kRecoveryOpsPerThread = 4000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t drop_every = 0;
  bool closed_loop = false;
  std::string git_sha = "unknown";
};

enum Phase : int { kWait, kWarm, kMeasure, kStop };

/// The system under test for one round; constructing it is the set-up.
template <class W>
struct System {
  rhtm::TmUniverse<typename W::Htm> u;
  W w;
  rhtm::HybridTm<typename W::Htm> tm;
  System() : u(W::universe_config()), tm(u) {}
};

struct RunCtl {
  std::atomic<int> phase{kWait};
  std::atomic<unsigned> ready{0};
  std::uint64_t op_limit = 0;  ///< closed loop: stop after this many ops (0 = by phase)
  std::uint64_t drop_every = 0;
  // Ticks: measured time starts at t_meas and is cut into `windows` windows.
  std::uint64_t t_meas = 0, window_ticks = 1, windows = 0;
  // Open loop: one Poisson arrival schedule (tick offsets from t_base) that
  // every worker serves in arrival order.
  // Per-request samples, indexed like `arrivals` (ticks; kShed = shed);
  // queue wait, service and the idle flag only in traced rounds.
  std::vector<std::uint64_t> arrivals;
  std::vector<std::uint32_t> latency, queue_wait, service;
  std::vector<std::uint8_t> idle;
  std::atomic<std::size_t> next_arrival{0};
  std::uint64_t t_base = 0, max_wait = 0;

  /// Window index of tick `t`, or `windows` when outside measured time.
  [[nodiscard]] std::uint64_t window_of(std::uint64_t t) const {
    if (t < t_meas) return windows;
    return std::min(windows, (t - t_meas) / window_ticks);
  }
};

constexpr std::uint32_t kShed = 0xffffffffu;

/// A closed-loop op-time sample (ticks) tagged with its statistics window.
struct Sample {
  std::uint32_t window;
  std::uint32_t ticks;
};

struct WorkerOut {
  rhtm::TxStats stats;
  LayerAcc acc;
  std::vector<Sample> latency;            ///< closed loop: every 16th measured op
  std::vector<std::uint64_t> window_ops;  ///< closed loop: ops completed per window
  std::uint64_t executed = 0;    ///< ops run this round, all phases
  std::uint64_t generated = 0;   ///< ops or requests issued, incl. shed
  std::uint64_t shed = 0;        ///< open loop: dropped for waiting > kMaxWaitNs
  std::uint64_t measured = 0;    ///< ops completed in measured time
  std::uint64_t busy_ticks = 0;  ///< open loop: service time in measured time
};

template <class W>
using ThreadCtx = typename rhtm::HybridTm<typename W::Htm>::ThreadCtx;

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Worker t runs alone on the (t+1)-th allowed CPU, leaving the first for
/// the OS and the sleeping main thread: two spinning workers sharing a CPU
/// would stall each other for whole scheduler slices.
void pin_worker(unsigned t) {
  static const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[(t + 1) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// One transaction: the op's body through OpHandle inside atomically(). In
/// traced rounds, spans around atomically (tx), the body (once per
/// attempt) and, inside OpHandle, every barrier call; `last_return` is the
/// tick the previous transaction returned, for the harness's own time.
template <bool kTraced, class W>
typename W::Out execute(System<W>& sys, ThreadCtx<W>& ctx, const typename W::Op& op,
                        typename W::Thread& ts, LayerAcc& acc, StoreLog& log,
                        StoreDropper& dropper, std::uint64_t& last_return) {
  typename W::Out res{};
  const auto body = [&](auto& h) {
    OpHandle<std::remove_reference_t<decltype(h)>, kTraced> oh{h, acc, log, dropper};
    if constexpr (kTraced) {
      Span s(acc.body_ticks, acc.bodies);
      res = sys.w.exec(oh, op, ts);
    } else {
      res = sys.w.exec(oh, op, ts);
    }
  };
  if constexpr (kTraced) {
    const std::uint64_t t0 = rhtm::rdtsc();
    if (last_return != 0) {
      acc.intertx_ticks += t0 - last_return;
      ++acc.intertx;
    }
    ++acc.txs;
    sys.tm.atomically(ctx, body);
    last_return = rhtm::rdtsc();
    acc.tx_ticks += last_return - t0;
  } else {
    sys.tm.atomically(ctx, body);
  }
  return res;
}

template <bool kTraced, class W>
void closed_worker(System<W>& sys, RunCtl& ctl, typename W::Thread& ts, WorkerOut& out) {
  ThreadCtx<W> ctx(sys.tm);
  StoreDropper dropper{ctl.drop_every};
  std::uint64_t last_return = 0;
  std::uint64_t pending = 0;  // measured ops not yet credited to a window
  ctl.ready.fetch_add(1, std::memory_order_acq_rel);
  while (ctl.phase.load(std::memory_order_acquire) == kWait) rhtm::detail::cpu_relax();
  for (;;) {
    const int phase = ctl.phase.load(std::memory_order_acquire);
    if (phase == kStop || (ctl.op_limit != 0 && out.executed == ctl.op_limit)) break;
    const typename W::Op op = sys.w.next(ts);
    StoreLog log;
    const bool in_window = phase == kMeasure;
    const bool timed = in_window && (out.measured & kLatencySampleMask) == 0;
    const std::uint64_t t0 = timed ? rhtm::rdtsc() : 0;
    const typename W::Out res =
        execute<kTraced>(sys, ctx, op, ts, out.acc, log, dropper, last_return);
    if (timed) {
      // Every 16th op is timed; it credits itself and the untimed ops
      // before it to its window.
      const std::uint64_t w = ctl.window_of(t0);
      if (w < ctl.windows) {
        out.latency.push_back({static_cast<std::uint32_t>(w), sample(rhtm::rdtsc() - t0)});
        out.window_ops[w] += pending + 1;
      }
      pending = 0;
    } else if (in_window) {
      ++pending;
    }
    sys.w.after(ts, op, res, log);
    ++out.executed;
    if (in_window) ++out.measured;
  }
  out.generated = out.executed;
  out.stats = ctx.stats;
}

/// Poisson arrival offsets in ticks, covering [0, span_ticks).
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                            double ns_per_tick, std::uint64_t span_ticks) {
  rhtm::Xoshiro256 rng(seed);
  const double mean_gap_ticks = 1e9 / rate_per_s / ns_per_tick;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(static_cast<double>(span_ticks) / mean_gap_ticks * 1.1));
  double t = 0;
  for (;;) {
    const double u = (static_cast<double>(rng.next_u64() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) * mean_gap_ticks;
    if (t >= static_cast<double>(span_ticks)) return out;
    out.push_back(static_cast<std::uint64_t>(t));
  }
}

/// Open loop: the workers share one arrival schedule; a free worker takes
/// the next request in arrival order and spins (never sleeps) until it is
/// due. Latency is stamped from the scheduled arrival, so time a request
/// waits for a free worker counts, and a stalled worker delays only the
/// request it holds.
template <bool kTraced, class W>
void open_worker(System<W>& sys, RunCtl& ctl, typename W::Thread& ts, WorkerOut& out) {
  ThreadCtx<W> ctx(sys.tm);
  StoreDropper dropper{ctl.drop_every};
  std::uint64_t last_return = 0;
  ctl.ready.fetch_add(1, std::memory_order_acq_rel);
  while (ctl.phase.load(std::memory_order_acquire) == kWait) rhtm::detail::cpu_relax();
  for (;;) {
    const std::size_t k = ctl.next_arrival.fetch_add(1, std::memory_order_relaxed);
    if (k >= ctl.arrivals.size()) break;
    const std::uint64_t due = ctl.t_base + ctl.arrivals[k];
    std::uint64_t start = rhtm::rdtsc();
    bool idle = false;
    if (start < due) {
      idle = true;
      const std::uint64_t spin0 = start;
      while ((start = rhtm::rdtsc()) < due) rhtm::detail::cpu_relax();
      if (last_return != 0) last_return += start - spin0;  // idle is not harness time
    }
    ++out.generated;
    if (start - due > ctl.max_wait) {
      ++out.shed;
      ctl.latency[k] = kShed;
      continue;
    }
    const typename W::Op op = sys.w.next(ts);
    StoreLog log;
    const typename W::Out res =
        execute<kTraced>(sys, ctx, op, ts, out.acc, log, dropper, last_return);
    const std::uint64_t done = rhtm::rdtsc();
    sys.w.after(ts, op, res, log);
    ++out.executed;
    ctl.latency[k] = sample(done - due);
    if constexpr (kTraced) {
      ctl.queue_wait[k] = sample(start - due);
      ctl.service[k] = sample(done - start);
      ctl.idle[k] = idle ? 1 : 0;
    }
    if (due >= ctl.t_meas) {
      ++out.measured;
      out.busy_ticks += done - start;
    }
  }
  out.stats = ctx.stats;
}

/// Current resident set size, MiB.
double resident_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

rhtm::FenceCounts global_fences() {
  return {rhtm::pmem::g_total_pwb.load(), rhtm::pmem::g_total_pfence.load(),
          rhtm::pmem::g_total_psync.load()};
}

/// Per-window percentiles (µs) of one sample kind; empty windows are skipped.
struct WindowStats {
  std::vector<double> p50, p99;
  std::uint64_t samples = 0;
};

/// Samples (ticks) bucketed by statistics window.
using Windowed = std::vector<std::vector<std::uint32_t>>;

WindowStats window_stats(Windowed& by_window, double ns_per_tick) {
  WindowStats ws;
  for (std::vector<std::uint32_t>& v : by_window) {
    ws.samples += v.size();
    if (v.empty()) continue;
    ws.p50.push_back(quantile(v, 0.50) * ns_per_tick * 1e-3);
    ws.p99.push_back(quantile(v, 0.99) * ns_per_tick * 1e-3);
  }
  return ws;
}

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  std::uint64_t generated = 0, shed = 0;
  std::vector<double> ops_per_s;  ///< per window
  WindowStats latency, queue_wait, service, gen_lag;
  double cost_per_op_ns = 0;  ///< worker busy time per op (tracing overhead base)
  rhtm::TxStats stats;
  LayerAcc acc;
  std::uint64_t publishes = 0;
  rhtm::FenceCounts fences;
  double rss_mb = 0;  ///< resident memory at the round's end, less its redo log
  Verdicts verdicts;
  std::vector<std::string> reconcile_failures;
};

/// Builds, drives and checks one round. `op_limit` != 0 makes it an
/// unmeasured closed-loop round of that many ops per worker, which on the
/// durable workload also checks recovery.
template <class W>
RoundResult run_round(const Options& opt, const TimerCost& tc, unsigned round, bool traced,
                      double measure_s, std::uint64_t op_limit = 0) {
  RoundResult rr;
  rr.traced = traced;
  const rhtm::FenceCounts fences0 = global_fences();
  const std::uint64_t s0 = now_ns();
  auto sys = std::make_unique<System<W>>();
  rr.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

  const bool open = W::kOpenLoop && !opt.closed_loop && op_limit == 0;
  const auto ticks = [&](double ns) { return static_cast<std::uint64_t>(ns / tc.ns_per_tick); };
  const double warm_ns = std::max(0.05, kWarmupFraction * measure_s) * 1e9;
  RunCtl ctl;
  ctl.op_limit = op_limit;
  ctl.drop_every = opt.drop_every;
  ctl.windows = op_limit != 0 ? 0 : std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                                                   measure_s * 1e9 / kWindowNs));
  ctl.window_ticks = ticks(kWindowNs);
  const double measure_ns = static_cast<double>(ctl.windows) * kWindowNs;
  ctl.max_wait = ticks(kMaxWaitNs);
  if constexpr (W::kOpenLoop) {
    if (open) {
      ctl.arrivals = poisson_schedule(mix_seed(opt.seed, round, 0xa221), W::kRatePerSec,
                                      tc.ns_per_tick, ticks(warm_ns + measure_ns));
      ctl.latency.assign(ctl.arrivals.size(), 0);
      if (traced) {
        ctl.queue_wait.assign(ctl.arrivals.size(), 0);
        ctl.service.assign(ctl.arrivals.size(), 0);
        ctl.idle.assign(ctl.arrivals.size(), 0);
      }
    }
  }
  std::vector<typename W::Thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.push_back(sys->w.make_thread(mix_seed(opt.seed, round, t), t));
  }
  std::vector<WorkerOut> outs(kThreads);
  for (WorkerOut& o : outs) {
    o.window_ops.assign(ctl.windows, 0);
    if (!open) {
      // Filled once and cleared: the buffer is resident before the round
      // starts, so resident memory does not follow the sample count.
      o.latency.assign(ctl.windows * 32768, Sample{});
      o.latency.clear();
    }
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      pin_worker(t);
      if (open) {
        traced ? open_worker<true>(*sys, ctl, ts[t], outs[t])
               : open_worker<false>(*sys, ctl, ts[t], outs[t]);
      } else {
        traced ? closed_worker<true>(*sys, ctl, ts[t], outs[t])
               : closed_worker<false>(*sys, ctl, ts[t], outs[t]);
      }
    });
  }
  while (ctl.ready.load(std::memory_order_acquire) < kThreads) std::this_thread::yield();

  const auto sleep_ns = [](double ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
  };
  if (op_limit != 0) {
    ctl.phase.store(kMeasure, std::memory_order_release);
  } else if (open) {
    ctl.t_base = rhtm::rdtsc() + ticks(1e6);
    ctl.t_meas = ctl.t_base + ticks(warm_ns);
    ctl.phase.store(kWarm, std::memory_order_release);
    sleep_ns(1e6 + warm_ns + measure_ns);
  } else {
    ctl.phase.store(kWarm, std::memory_order_release);
    sleep_ns(warm_ns);
    ctl.t_meas = rhtm::rdtsc();
    ctl.phase.store(kMeasure, std::memory_order_release);
    // Every window must end before kStop; the last op may overrun it.
    sleep_ns(measure_ns + 1e6);
    ctl.phase.store(kStop, std::memory_order_release);
  }
  for (std::thread& w : workers) w.join();

  std::uint64_t executed = 0, measured = 0, busy = 0;
  std::vector<std::uint64_t> window_ops(ctl.windows, 0);
  Windowed latency(ctl.windows), queue_wait(ctl.windows), service(ctl.windows),
      gen_lag(ctl.windows);
  for (const WorkerOut& o : outs) {
    rr.stats.merge(o.stats);
    rr.acc.merge(o.acc);
    executed += o.executed;
    measured += o.measured;
    busy += o.busy_ticks;
    rr.generated += o.generated;
    rr.shed += o.shed;
    for (std::uint64_t w = 0; w < ctl.windows; ++w) window_ops[w] += o.window_ops[w];
    for (const Sample& s : o.latency) latency[s.window].push_back(s.ticks);
  }
  for (std::size_t k = 0; k < ctl.latency.size(); ++k) {
    const std::uint64_t w = ctl.window_of(ctl.t_base + ctl.arrivals[k]);
    if (w >= ctl.windows || ctl.latency[k] == kShed) continue;
    ++window_ops[w];
    latency[w].push_back(ctl.latency[k]);
    if (!traced) continue;
    queue_wait[w].push_back(ctl.queue_wait[k]);
    service[w].push_back(ctl.service[k]);
    if (ctl.idle[k] != 0) gen_lag[w].push_back(ctl.queue_wait[k]);
  }
  for (const std::uint64_t n : window_ops) rr.ops_per_s.push_back(n * 1e9 / kWindowNs);
  rr.latency = window_stats(latency, tc.ns_per_tick);
  if (open) {
    rr.cost_per_op_ns = ratio_or_zero(static_cast<double>(busy) * tc.ns_per_tick,
                                      static_cast<double>(measured));
    rr.queue_wait = window_stats(queue_wait, tc.ns_per_tick);
    rr.service = window_stats(service, tc.ns_per_tick);
    rr.gen_lag = window_stats(gen_lag, tc.ns_per_tick);
  } else {
    // A closed-loop client never queues: its service time is its latency.
    std::uint64_t window_total = 0;
    for (const std::uint64_t n : window_ops) window_total += n;
    rr.cost_per_op_ns = ratio_or_zero(kThreads * measure_ns, static_cast<double>(window_total));
    rr.service = rr.latency;
  }

  rr.publishes = sys->u.clock().global_publishes();
  rr.rss_mb = resident_mb();
  if constexpr (std::is_same_v<W, KvDurable>) {
    rr.fences = sys->u.pmem().fence_counts();
    // The simulated persistent medium's redo log is never truncated, so its
    // pages grow with commit throughput; it models NVM, not DRAM. Each
    // durable commit appended pwb + pfence log words (record + marker).
    rr.rss_mb -= static_cast<double>(rr.fences.pwb + rr.fences.pfence) * 8.0 / (1 << 20);
    sys->w.check(sys->u.pmem(), rr.verdicts);
    if (op_limit != 0) KvDurable::check_recovery(sys->u.pmem(), rr.verdicts);
  } else {
    sys->w.check(ts, rr.verdicts);
    const std::uint64_t leaked = global_fences().total() - fences0.total();
    if (leaked != 0) {
      rr.reconcile_failures.push_back("pmem fences on a non-durable universe: " +
                                      std::to_string(leaked));
    }
  }

  // Reconciliation: the benchmark's own counts against the library's.
  const auto expect_eq = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      rr.reconcile_failures.push_back(std::string(what) + ": " + std::to_string(a) +
                                      " != " + std::to_string(b));
    }
  };
  expect_eq("ops == TxStats commits", executed, rr.stats.commits);
  if (traced) {
    std::uint64_t attempts = 0;
    for (std::uint64_t a : rr.stats.attempts_by_path) attempts += a;
    expect_eq("traced tx spans == TxStats commits", rr.acc.txs, rr.stats.commits);
    expect_eq("traced body spans == TxStats attempts", rr.acc.bodies, attempts);
  }
  return rr;
}

// ------------------------------------------------------------ reporting --
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

using Percentiles = std::vector<double> WindowStats::*;

/// Median over every window of the traced (or untraced) rounds of one
/// per-window percentile, e.g. (&RoundResult::latency, &WindowStats::p99).
double window_median(const std::vector<RoundResult>& rounds, bool traced,
                     WindowStats RoundResult::*kind, Percentiles q) {
  std::vector<double> all;
  for (const RoundResult& r : rounds) {
    if (r.traced != traced) continue;
    const std::vector<double>& s = (r.*kind).*q;
    all.insert(all.end(), s.begin(), s.end());
  }
  return median(all);
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds, double peak_rss_mb) {
  std::vector<double> setup, ops;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    if (!r.traced) ops.insert(ops.end(), r.ops_per_s.begin(), r.ops_per_s.end());
  }
  const auto latency = [&](Percentiles q) {
    return window_median(rounds, false, &RoundResult::latency, q);
  };
  return {{"setup_s", median(setup), "s"},
          {"ops_per_s", median(ops), "ops/s"},
          {"p50_us", latency(&WindowStats::p50), "us"},
          {"p99_us", latency(&WindowStats::p99), "us"},
          {"peak_rss_mb", peak_rss_mb, "MB"}};
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& rounds, const TimerCost& tc) {
  rhtm::TxStats st;
  LayerAcc acc;
  std::uint64_t publishes = 0;
  rhtm::FenceCounts f;
  std::vector<double> cost_traced, cost_plain;
  for (const RoundResult& r : rounds) {
    (r.traced ? cost_traced : cost_plain).push_back(r.cost_per_op_ns);
    if (!r.traced) continue;
    st.merge(r.stats);
    acc.merge(r.acc);
    publishes += r.publishes;
    f.pwb += r.fences.pwb;
    f.pfence += r.fences.pfence;
    f.psync += r.fences.psync;
  }
  const auto windowed = [&](WindowStats RoundResult::*kind, Percentiles q) {
    return window_median(rounds, true, kind, q);
  };
  const auto C = static_cast<double>(st.commits);
  std::uint64_t attempts = 0;
  for (std::uint64_t a : st.attempts_by_path) attempts += a;
  const auto A = static_cast<double>(attempts);
  const auto txs = static_cast<double>(acc.txs);
  const auto calls =
      static_cast<double>(acc.reads[0] + acc.reads[1] + acc.writes[0] + acc.writes[1]);
  const double npt = tc.ns_per_tick;
  // Span totals in ticks, less the span timer's own cost: each span pays
  // null_ticks inside itself, and each nested span nested_ticks inside
  // every span around it.
  const auto net = [&](std::uint64_t ticks, std::uint64_t n) {
    return std::max(0.0, static_cast<double>(ticks) - static_cast<double>(n) * tc.null_ticks);
  };
  double barrier_total = 0;
  for (int k = 0; k < 2; ++k) {
    barrier_total +=
        net(acc.read_ticks[k], acc.reads[k]) + net(acc.write_ticks[k], acc.writes[k]);
  }
  const auto bodies = static_cast<double>(acc.bodies);
  const double body_true =
      std::max(0.0, net(acc.body_ticks, acc.bodies) - calls * tc.nested_ticks);
  const double tx_true =
      std::max(0.0, net(acc.tx_ticks, acc.txs) - (bodies + calls) * tc.nested_ticks);
  const double tx_ns = ratio_or_zero(tx_true * npt, txs);
  const double body_ns = ratio_or_zero(body_true * npt, txs);
  const auto per_call = [&](std::uint64_t ticks, std::uint64_t n) {
    return ratio_or_zero(net(ticks, n) * npt, static_cast<double>(n));
  };
  const auto per_commit = [&](std::uint64_t n) { return ratio_or_zero(static_cast<double>(n), C); };
  const auto share = [&](rhtm::ExecPath p) {
    return per_commit(st.commits_by_path[static_cast<std::size_t>(p)]);
  };
  const auto per_ktx = [&](rhtm::AbortCause c) {
    return 1000.0 * per_commit(st.aborts_by_cause[static_cast<std::size_t>(c)]);
  };
  const auto per_tx = [&](std::uint64_t n) { return ratio_or_zero(static_cast<double>(n), txs); };
  using rhtm::AbortCause;
  using rhtm::ExecPath;
  return {
      {"tm.tx_ns", tx_ns, "ns"},
      {"tm.body_ns", body_ns, "ns"},
      {"tm.commit_ns", tx_ns - body_ns, "ns"},
      {"tm.attempts_per_tx", ratio_or_zero(A, C), "count/tx"},
      {"tm.wasted_frac", ratio_or_zero(A - C, A), "fraction"},
      {"tm.share.rh1_fast", share(ExecPath::kRh1Fast), "fraction"},
      {"tm.share.rh1_slow", share(ExecPath::kRh1Slow), "fraction"},
      {"tm.share.rh2_slow", share(ExecPath::kRh2Slow), "fraction"},
      {"tm.share.rh2_slow_slow", share(ExecPath::kRh2SlowSlow), "fraction"},
      {"tm.aborts_per_ktx.htm_conflict", per_ktx(AbortCause::kHtmConflict), "1/ktx"},
      {"tm.aborts_per_ktx.htm_capacity", per_ktx(AbortCause::kHtmCapacity), "1/ktx"},
      {"tm.aborts_per_ktx.htm_explicit", per_ktx(AbortCause::kHtmExplicit), "1/ktx"},
      {"tm.aborts_per_ktx.stm_validation", per_ktx(AbortCause::kStmValidation), "1/ktx"},
      {"tm.aborts_per_ktx.stm_locked", per_ktx(AbortCause::kStmLocked), "1/ktx"},
      {"barrier.fast.read_ns", per_call(acc.read_ticks[0], acc.reads[0]), "ns"},
      {"barrier.fast.write_ns", per_call(acc.write_ticks[0], acc.writes[0]), "ns"},
      {"barrier.sw.read_ns", per_call(acc.read_ticks[1], acc.reads[1]), "ns"},
      {"barrier.sw.write_ns", per_call(acc.write_ticks[1], acc.writes[1]), "ns"},
      {"barrier.reads_per_tx", per_tx(acc.reads[0] + acc.reads[1]), "count/tx"},
      {"barrier.writes_per_tx", per_tx(acc.writes[0] + acc.writes[1]), "count/tx"},
      {"tm.private_ns", ratio_or_zero((body_true - barrier_total) * npt, txs), "ns"},
      {"clock.publishes_per_commit", per_commit(publishes), "count/commit"},
      {"pmem.pwb_per_commit", per_commit(f.pwb), "count/commit"},
      {"pmem.pfence_per_commit", per_commit(f.pfence), "count/commit"},
      {"pmem.psync_per_commit", per_commit(f.psync), "count/commit"},
      {"driver.intertx_ns",
       ratio_or_zero(net(acc.intertx_ticks, acc.intertx) * npt, static_cast<double>(acc.intertx)),
       "ns"},
      {"service.queue_wait_us.p50", windowed(&RoundResult::queue_wait, &WindowStats::p50), "us"},
      {"service.queue_wait_us.p99", windowed(&RoundResult::queue_wait, &WindowStats::p99), "us"},
      {"service.service_us.p50", windowed(&RoundResult::service, &WindowStats::p50), "us"},
      {"service.service_us.p99", windowed(&RoundResult::service, &WindowStats::p99), "us"},
      {"service.gen_lag_us.p99", windowed(&RoundResult::gen_lag, &WindowStats::p99), "us"},
      {"trace.overhead_frac", ratio_or_zero(median(cost_traced), median(cost_plain)) - 1.0,
       "fraction"},
  };
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string substrate_availability() {
  std::string s = "emul,sim";
  if (!rhtm::substrate_compiled(rhtm::SubstrateKind::kRtm)) return s + ",rtm:not-compiled";
  if (!rhtm::HtmRtm::available()) return s + ",rtm:no-cpu-support";
  return s + (rhtm::HtmRtm::hardware_viable() ? ",rtm:viable" : ",rtm:not-viable");
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Why this binary must not report numbers, or empty when it may.
std::string unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "assertions enabled (NDEBUG unset)";
#else
  if (std::strcmp(RHBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type '") + RHBENCH_BUILD_TYPE + "' is not Release";
  }
  if (std::strstr(RHBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "sanitizer flags";
  return {};
#endif
}

void print_provenance(const Options& opt, unsigned rounds) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  std::printf(
      "provenance {\"hostname\": \"%s\", \"nproc\": %ld, \"substrates\": \"%s\", "
      "\"git_sha\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"workers\": %u, \"seed\": %llu, \"rounds\": %u, \"trace\": %d}\n",
      json_escape(host).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      substrate_availability().c_str(), json_escape(opt.git_sha).c_str(),
      json_escape(compiler_id()).c_str(), RHBENCH_BUILD_TYPE,
      json_escape(RHBENCH_CXX_FLAGS).c_str(), kThreads,
      static_cast<unsigned long long>(opt.seed), rounds, opt.trace ? 1 : 0);
}

template <class W>
int run(const Options& opt) {
  const auto rounds_n = static_cast<unsigned>(
      std::max(2.0, std::round(opt.seconds / kRoundSeconds)));
  const double measure_s = opt.seconds / rounds_n;
  print_provenance(opt, rounds_n);
  const TimerCost tc = calibrate_timer();

  std::vector<RoundResult> rounds;
  for (unsigned r = 0; r < rounds_n; ++r) {
    const RoundResult& rr =
        rounds.emplace_back(run_round<W>(opt, tc, r, opt.trace && r % 2 == 1, measure_s));
    std::printf("round %u %s setup=%.6f s ops/s=%.1f p50=%.3f us p99=%.3f us (window medians)\n",
                r, rr.traced ? "traced  " : "untraced", rr.setup_s, median(rr.ops_per_s),
                median(rr.latency.p50), median(rr.latency.p99));
  }
  std::vector<RoundResult> checked;  // every round whose oracles count
  if constexpr (std::is_same_v<W, KvDurable>) {
    // recover() scans the whole log; a short unmeasured round keeps it cheap.
    checked.push_back(run_round<W>(opt, tc, rounds_n, false, 0, kRecoveryOpsPerThread));
  }

  // Memory only grows while a round runs, so its end is its peak.
  double peak_rss_mb = 0;
  for (const RoundResult& r : rounds) peak_rss_mb = std::max(peak_rss_mb, r.rss_mb);

  // Oracles, summed over rounds.
  std::map<std::string, Verdict> verdicts;
  std::vector<std::string> order;
  std::uint64_t attempted = 0, failed = 0, shed = 0;
  std::vector<std::string> reconcile;
  const auto add_verdict = [&](const Verdict& v) {
    if (verdicts.count(v.name) == 0) order.push_back(v.name);
    Verdict& sum = verdicts[v.name];
    sum.name = v.name;
    sum.checked += v.checked;
    sum.failed += v.failed;
  };
  checked.insert(checked.begin(), rounds.begin(), rounds.end());
  for (const RoundResult& r : checked) {
    attempted += r.generated;
    shed += r.shed;
    for (const Verdict& v : r.verdicts) add_verdict(v);
    reconcile.insert(reconcile.end(), r.reconcile_failures.begin(), r.reconcile_failures.end());
  }
  if (W::kOpenLoop && !opt.closed_loop) add_verdict({"driver.no_request_shed", attempted, shed});
  for (const std::string& name : order) {
    const Verdict& v = verdicts[name];
    failed += v.failed;
    std::printf("oracle %-40s %s (%llu failed of %llu checked)\n", name.c_str(),
                v.failed == 0 ? "PASS" : "FAIL", static_cast<unsigned long long>(v.failed),
                static_cast<unsigned long long>(v.checked));
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = per_layer(rounds, tc);
    double share_sum = 0;
    for (const Metric& m : metrics) {
      if (m.name.rfind("tm.share.", 0) == 0) share_sum += m.value;
    }
    if (std::fabs(share_sum - 1.0) > 1e-9) {
      reconcile.push_back("tier shares sum to " + std::to_string(share_sum));
    }
    for (const Metric& m : metrics) {
      if (!std::is_same_v<W, KvDurable> && m.name.rfind("pmem.", 0) == 0 && m.value != 0.0) {
        reconcile.push_back(m.name + " is nonzero on a non-durable workload");
      }
    }
    std::printf("timer ns_per_tick=%.6f null_span_ticks=%.1f nested_span_ticks=%.1f\n",
                tc.ns_per_tick, tc.null_ticks, tc.nested_ticks);
  } else {
    metrics = end_to_end(rounds, peak_rss_mb);
  }
  std::printf("reconcile %s (ops == commits%s, pmem zero off-durable)\n",
              reconcile.empty() ? "PASS" : "FAIL",
              opt.trace ? ", tx/body spans == TxStats commits/attempts, tier shares sum to 1" : "");
  for (const std::string& why : reconcile) std::printf("reconcile failure: %s\n", why.c_str());
  std::printf("fail_frac = %.9g fraction (%llu failed of %llu attempted)\n",
              ratio_or_zero(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::uint64_t samples = 0, windows = 0;
  for (const RoundResult& r : rounds) {
    if (r.traced) continue;
    samples += r.latency.samples;
    windows += r.ops_per_s.size();
  }
  if (!opt.trace) {
    std::printf("windows: %llu of %.0f ms; latency samples: %llu\n",
                static_cast<unsigned long long>(windows), kWindowNs * 1e-6,
                static_cast<unsigned long long>(samples));
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-34s = %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }

  const bool correct = failed == 0 && reconcile.empty();
  if (!correct) {
    std::printf("FAILED workload=%s seed=%llu: rerun with the same --seed to reproduce\n",
                W::kName, static_cast<unsigned long long>(opt.seed));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rhbench: %s\nusage: rhbench --workload rbtree_fastpath|kv_service|kv_durable "
               "--seed N --seconds S --trace 0|1 [--drop-store-every K] [--closed-loop] "
               "[--git-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--closed-loop") {
      opt.closed_loop = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (!(opt.seconds >= 0.1 && opt.seconds <= 120)) usage("--seconds must be in [0.1, 120]");
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      if (!opt.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (a == "--drop-store-every") {
      opt.drop_every = std::strtoull(v, &end, 10);
    } else if (a == "--git-sha") {
      opt.git_sha = v;
    } else {
      usage("unknown flag " + a);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + a);
  }
  return opt;
}

}  // namespace
}  // namespace rhbench

int main(int argc, char** argv) {
  using namespace rhbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // A fixed threshold keeps glibc from moving large blocks freed by one
  // round onto the heap for the next, so resident memory does not depend
  // on allocation history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options opt = parse(argc, argv);
  if (const std::string why = unfit_build(); !why.empty()) {
    std::fprintf(stderr, "rhbench: refusing to report numbers: %s\n", why.c_str());
    return 3;
  }
  if (opt.workload == RbtreeFastpath::kName) return run<RbtreeFastpath>(opt);
  if (opt.workload == KvService::kName) return run<KvService>(opt);
  if (opt.workload == KvDurable::kName) return run<KvDurable>(opt);
  usage("unknown --workload '" + opt.workload + "'");
}
