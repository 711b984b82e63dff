#pragma once

// Shared infrastructure for the scenario registry (bench/registry.h).
//
// Defaults follow the paper's methodology (§3): the *emulated* substrate
// (plain-access HTM), constant workloads, thread sweep 1..20, and abort
// ratios measured from a TL2 run of the same configuration injected into
// every hardware-mode series. Every knob can be overridden; unknown flags
// are rejected with a usage message (never silently ignored):
//
//   --seconds=<double>      per measurement point            (default 0.08)
//   --threads=<a,b,c>       thread counts                    (default 1,2,4,...,20)
//   --substrate=emul|sim|rtm  HTM substrate                  (default emul)
//   --pin=none|compact|scatter  worker-thread affinity       (default none)
//   --full                  paper-scale sizes + longer runs
//   --list                  enumerate registered scenarios and exit
//   --scenario=<a,b>        run only scenarios whose name contains a token
//   --json-dir=<dir>        where BENCH_<scenario>.json reports go (default .)
//   --no-json               print tables only, skip the JSON reports
//
// Every scenario emits its results twice: the paper-style table on stdout
// and a machine-readable BENCH_<scenario>.json (core/report.h) built from
// the same stored points.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/report.h"
#include "core/rhtm.h"
#include "workloads/driver.h"
#include "workloads/txn_queue.h"

namespace rhtm::bench {

/// Keeps a computed value alive past the optimiser (read sinks).
template <class T>
inline void do_not_optimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct Options {
  double seconds = 0.08;
  double calib_seconds = 0.06;
  std::vector<unsigned> threads = {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
  SubstrateKind substrate = SubstrateKind::kEmul;
  PinMode pin = PinMode::kNone;
  bool full = false;

  // Registry-driver flags (bench/run_all.cpp).
  bool list = false;
  bool write_json = true;
  std::string json_dir = ".";
  std::vector<std::string> scenario_filter;

  // Observability flags (core/trace.h, core/timeseries.h).
  std::string trace_path;              ///< --trace=<file>[:cap]; empty = off
  std::size_t trace_cap = 1 << 14;     ///< per-thread ring capacity (events)
  double timeline_interval = 0;        ///< --timeline=<ms> sampler period; 0 = off
  /// The run-owned tracer, installed by run_all after parsing; scenarios
  /// receive it through universe_config(opt). Non-owning.
  trace::Tracer* tracer = nullptr;

  static void usage(const char* argv0, std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--seconds=S] [--threads=a,b,c] [--substrate=emul|sim|rtm]\n"
                 "          [--pin=none|compact|scatter]\n"
                 "          [--full] [--list] [--scenario=a,b] [--json-dir=DIR] [--no-json]\n"
                 "          [--trace=FILE[:CAP]] [--timeline=MS]\n"
                 "\n"
                 "  --seconds=S          measurement time per (series, thread-count) point\n"
                 "  --threads=a,b,c      thread counts to sweep\n"
                 "  --substrate=emul|sim|rtm\n"
                 "                       HTM substrate (plain-access emulation | simulator |\n"
                 "                       real Intel RTM; rtm needs an -mrtm build + TSX host)\n"
                 "  --pin=none|compact|scatter\n"
                 "                       worker-thread affinity by the sysfs socket topology:\n"
                 "                       compact fills one socket's CPUs before the next,\n"
                 "                       scatter deals threads round-robin across sockets\n"
                 "                       (on one socket both pin thread t to its t-th CPU);\n"
                 "                       without a discovered topology scatter alternates\n"
                 "                       across the CPU id halves\n"
                 "  --full               paper-scale sizes and 1 s points\n"
                 "  --list               list registered scenarios and exit\n"
                 "  --scenario=a,b       run only scenarios whose name contains a token\n"
                 "  --json-dir=DIR       directory for BENCH_<scenario>.json (default .)\n"
                 "  --no-json            skip writing the JSON reports\n"
                 "  --trace=FILE[:CAP]   record per-thread transaction event traces and\n"
                 "                       write them to FILE (scripts/trace_summary.py\n"
                 "                       reads it and renders Perfetto JSON); CAP =\n"
                 "                       per-thread ring capacity in events (default 16384,\n"
                 "                       at most %zu)\n"
                 "  --timeline=MS        sample throughput/abort/tier metrics every MS ms\n"
                 "                       into a `timeline` array in BENCH_<scenario>.json\n",
                 argv0, trace::kMaxRingCapacity);
  }

  /// Strict parser: any flag it does not recognise (or a recognised flag
  /// with a malformed value) prints the usage message and exits nonzero.
  static Options parse(int argc, char** argv) {
    Options opt;
    const auto die = [&](const char* what, const std::string& arg) {
      std::fprintf(stderr, "%s: %s '%s'\n", argv[0], what, arg.c_str());
      usage(argv[0], stderr);
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--seconds=", 0) == 0) {
        char* end = nullptr;
        opt.seconds = std::strtod(arg.c_str() + 10, &end);
        if (end == arg.c_str() + 10 || *end != '\0' || !(opt.seconds > 0)) {
          die("bad value for --seconds in", arg);
        }
        opt.calib_seconds = opt.seconds;
      } else if (arg.rfind("--threads=", 0) == 0) {
        opt.threads.clear();
        const char* p = arg.c_str() + 10;
        while (*p != '\0') {
          char* end = nullptr;
          const unsigned long v = std::strtoul(p, &end, 10);
          if (end == p || v == 0 || (*end != '\0' && *end != ',')) {
            die("bad thread list in", arg);
          }
          opt.threads.push_back(static_cast<unsigned>(v));
          p = *end == ',' ? end + 1 : end;
        }
        if (opt.threads.empty()) die("empty thread list in", arg);
      } else if (arg.rfind("--substrate=", 0) == 0) {
        if (!parse_substrate_kind(arg.c_str() + 12, &opt.substrate)) {
          die("unknown substrate in", arg);
        }
        if (!substrate_compiled(opt.substrate)) {
          std::fprintf(stderr,
                       "%s: --substrate=%s requires a build with RTM intrinsics; "
                       "reconfigure with -DRHTM_ENABLE_RTM=ON (adds -mrtm)\n",
                       argv[0], to_string(opt.substrate));
          std::exit(2);
        }
      } else if (arg.rfind("--pin=", 0) == 0) {
        if (!parse_pin_mode(arg.c_str() + 6, &opt.pin)) {
          die("unknown pin mode in", arg);
        }
      } else if (arg == "--full") {
        opt.full = true;
        opt.seconds = 1.0;
        opt.calib_seconds = 0.5;
      } else if (arg == "--list") {
        opt.list = true;
      } else if (arg.rfind("--scenario=", 0) == 0) {
        const char* p = arg.c_str() + 11;
        while (*p != '\0') {
          const char* comma = std::strchr(p, ',');
          const std::string token = comma != nullptr ? std::string(p, comma) : std::string(p);
          if (!token.empty()) opt.scenario_filter.push_back(token);
          p = comma != nullptr ? comma + 1 : p + token.size();
        }
        if (opt.scenario_filter.empty()) die("empty scenario filter in", arg);
      } else if (arg.rfind("--json-dir=", 0) == 0) {
        opt.json_dir = arg.substr(11);
        if (opt.json_dir.empty()) die("empty directory in", arg);
      } else if (arg == "--no-json") {
        opt.write_json = false;
      } else if (arg.rfind("--trace=", 0) == 0) {
        std::string spec = arg.substr(8);
        // FILE[:CAP] — only the LAST ':' can start a capacity suffix, and
        // only when what follows is a pure number (so paths with ':' work).
        const std::size_t colon = spec.rfind(':');
        if (colon != std::string::npos && colon + 1 < spec.size()) {
          char* end = nullptr;
          const unsigned long cap = std::strtoul(spec.c_str() + colon + 1, &end, 10);
          if (*end == '\0') {
            if (cap == 0 || cap > trace::kMaxRingCapacity) die("bad ring capacity in", arg);
            opt.trace_cap = static_cast<std::size_t>(cap);
            spec.resize(colon);
          }
        }
        if (spec.empty()) die("empty file in", arg);
        opt.trace_path = spec;
      } else if (arg.rfind("--timeline=", 0) == 0) {
        char* end = nullptr;
        const double ms = std::strtod(arg.c_str() + 11, &end);
        if (end == arg.c_str() + 11 || *end != '\0' || !(ms > 0)) {
          die("bad value for --timeline in", arg);
        }
        opt.timeline_interval = ms / 1000.0;
      } else if (arg == "--help") {
        usage(argv[0], stdout);
        std::exit(0);
      } else {
        die("unknown flag", arg);
      }
    }
    return opt;
  }

  [[nodiscard]] const char* substrate_name() const { return to_string(substrate); }
};

/// UniverseConfig seeded from the global bench options (the run's
/// tracer). Scenarios override further fields on the returned config
/// before constructing their universe.
[[nodiscard]] inline UniverseConfig universe_config(const Options& opt) {
  UniverseConfig cfg;
  cfg.tracer = opt.tracer;
  return cfg;
}

// ---------------------------------------------------------- provenance --
// Stamped into every BENCH_*.json meta so check_regression.py artifact
// diffs can report WHAT changed between two runs (compiler, flags, commit,
// host, substrate availability), not just the throughput ratio.

#ifndef RHTM_GIT_SHA
#define RHTM_GIT_SHA "unknown"  // CMake injects the configure-time HEAD SHA
#endif
#ifndef RHTM_BUILD_FLAGS
#define RHTM_BUILD_FLAGS "unknown"  // CMake injects build type + CXX flags
#endif

/// Compiler id + version, from the predefined macros of the active compiler.
[[nodiscard]] inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Which substrates this binary+host can actually run: emul and sim always;
/// rtm reported as compiled-out, cpu-unsupported, non-viable or viable.
[[nodiscard]] inline std::string substrate_availability() {
  std::string s = "emul,sim";
  if (!substrate_compiled(SubstrateKind::kRtm)) {
    s += ",rtm:not-compiled";
  } else if (!HtmRtm::available()) {
    s += ",rtm:no-cpu-support";
  } else if (!HtmRtm::hardware_viable()) {
    s += ",rtm:not-viable";
  } else {
    s += ",rtm:viable";
  }
  return s;
}

/// Stamps the provenance meta block into a report (run_all applies it to
/// every scenario's report before printing/writing).
inline void stamp_provenance(report::BenchReport& rep) {
  rep.set_meta("git_sha", RHTM_GIT_SHA);
  rep.set_meta("compiler", compiler_id());
  rep.set_meta("build_flags", RHTM_BUILD_FLAGS);
#if !defined(_WIN32)
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    rep.set_meta("hostname", host);
  }
#endif
  rep.set_meta("substrates", substrate_availability());
  const Topology& topo = Topology::system();
  rep.set_meta("sockets", std::to_string(topo.socket_count()) +
                              (topo.discovered() ? "" : " (fallback)"));
}

/// Carries the substrate type through the generic dispatch lambda:
/// `dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { ... })`.
template <class H>
struct SubstrateTag {
  using type = H;
};

/// Exits with a diagnostic when the chosen substrate cannot run on this
/// host. The only runtime-gated substrate is rtm: the flag parser already
/// rejected it in builds without RTM intrinsics, so reaching this with an
/// unavailable rtm means the *CPU* lacks (or hides) TSX. Never SIGILLs:
/// _xbegin is not executed unless CPUID advertises RTM.
inline void require_substrate_available(const Options& opt) {
  if (opt.substrate != SubstrateKind::kRtm) return;
  if (!HtmRtm::available()) {
    std::fprintf(stderr,
                 "--substrate=rtm: CPUID reports no RTM support on this host; "
                 "use --substrate=emul or --substrate=sim\n");
    std::exit(2);
  }
  if (!HtmRtm::hardware_viable()) {
    static bool warned = false;  // per-scenario dispatch: warn once per process
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "warning: CPUID advertises RTM but no probe transaction committed "
                   "(TSX likely disabled by microcode); hardware paths will run on "
                   "their software fallbacks\n");
    }
  }
}

/// THE substrate dispatch: maps the runtime --substrate choice onto a
/// compile-time substrate type and invokes `fn(SubstrateTag<H>{})`. Scenario
/// TUs contain no substrate names beyond their one templated body; adding a
/// substrate means extending this switch (and the core traits), nothing
/// else.
template <class Fn>
decltype(auto) dispatch_substrate(const Options& opt, Fn&& fn) {
  require_substrate_available(opt);
  switch (opt.substrate) {
    case SubstrateKind::kSim: return std::forward<Fn>(fn)(SubstrateTag<HtmSim>{});
    case SubstrateKind::kRtm: return std::forward<Fn>(fn)(SubstrateTag<HtmRtm>{});
    case SubstrateKind::kEmul: break;
  }
  return std::forward<Fn>(fn)(SubstrateTag<HtmEmul>{});
}

/// Applies `fn(SubstrateTag<H>{})` to every substrate this binary can run:
/// emul and sim always, rtm when the hardware is actually usable. For
/// scenarios (micro_htm) and tests that sweep the substrate axis itself.
template <class Fn>
void for_each_available_substrate(Fn&& fn) {
  fn(SubstrateTag<HtmEmul>{});
  fn(SubstrateTag<HtmSim>{});
  if (HtmRtm::hardware_viable()) fn(SubstrateTag<HtmRtm>{});
}

/// Fraction (percent) of hardware speculation thrown away: hardware-cause
/// aborts per completed transaction, wasted_pct = 100 * hw_aborts /
/// (hw_aborts + commits). Every hardware abort is a full speculative body
/// discarded, so this tracks wasted work across protocols regardless of
/// which path finally committed. 0 for pure-software series.
[[nodiscard]] inline double wasted_speculation_pct(const TxStats& s) {
  std::uint64_t hw_aborts = 0;
  for (const AbortCause c : {AbortCause::kHtmConflict, AbortCause::kHtmCapacity,
                             AbortCause::kHtmExplicit, AbortCause::kInjected}) {
    hw_aborts += s.aborts_by_cause[static_cast<std::size_t>(c)];
  }
  const double denom = static_cast<double>(hw_aborts + s.commits);
  return denom > 0 ? 100.0 * static_cast<double>(hw_aborts) / denom : 0.0;
}

/// PMU plumbing for the rtm substrate: snapshot before a run, delta after.
/// Compiles to nothing on emul/sim (no hardware counters to read).
template <class H>
[[nodiscard]] inline pmu::RtmTotalsSnapshot pmu_snapshot(TmUniverse<H>& universe) {
  if constexpr (SubstrateTraits<H>::kKind == SubstrateKind::kRtm) {
    return universe.htm().pmu_totals();
  } else {
    (void)universe;
    return {};
  }
}

/// Adds the hardware-measured RTM counters for one run (the delta from
/// `before`) to a report point. Emits nothing when the PMU was unavailable
/// — absent keys, not zeros-as-measurements (run_all stamps the reason in
/// the report meta).
template <class H>
inline void add_pmu_metrics(report::Point& p, TmUniverse<H>& universe,
                            const pmu::RtmTotalsSnapshot& before) {
  if constexpr (SubstrateTraits<H>::kKind == SubstrateKind::kRtm) {
    const pmu::RtmTotalsSnapshot now = universe.htm().pmu_totals();
    if (now.threads_sampled > before.threads_sampled) {
      p.set("pmu_tx_starts", static_cast<double>(now.tx_starts - before.tx_starts));
      p.set("pmu_tx_commits", static_cast<double>(now.tx_commits - before.tx_commits));
      if (now.threads_with_cycles > before.threads_with_cycles) {
        p.set("pmu_aborted_cycles",
              static_cast<double>(now.aborted_cycles() - before.aborted_cycles()));
      }
    }
  } else {
    (void)p;
    (void)universe;
    (void)before;
  }
}

/// Copies one throughput run into a report point: the headline metrics plus
/// every non-zero per-path / per-cause counter.
inline void fill_point(report::Point& p, const ThroughputResult& r) {
  p.set("total_ops", static_cast<double>(r.total_ops));
  p.set("ops_per_sec",
        r.seconds > 0 ? static_cast<double>(r.total_ops) / r.seconds : 0.0);
  p.set("abort_ratio", r.abort_ratio());
  p.set("wasted_speculation_pct", wasted_speculation_pct(r.stats));
  p.set("commits", static_cast<double>(r.stats.commits));
  p.set("aborts", static_cast<double>(r.stats.aborts));
  p.set("wall_seconds", r.seconds);
  for (std::size_t i = 0; i < static_cast<std::size_t>(ExecPath::kCount); ++i) {
    const auto path = static_cast<ExecPath>(i);
    if (r.stats.commits_by_path[i] != 0) {
      p.set(std::string("commits_") + to_string(path),
            static_cast<double>(r.stats.commits_by_path[i]));
    }
    if (r.stats.attempts_by_path[i] != 0) {
      p.set(std::string("attempts_") + to_string(path),
            static_cast<double>(r.stats.attempts_by_path[i]));
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(AbortCause::kCount); ++i) {
    if (r.stats.aborts_by_cause[i] != 0) {
      p.set(std::string("aborts_") + to_string(static_cast<AbortCause>(i)),
            static_cast<double>(r.stats.aborts_by_cause[i]));
    }
  }
}

/// The protocol series of the paper's figures plus the two extension
/// hybrids, so every workload can sweep every protocol uniformly.
enum class Series {
  kHtm,          ///< "HTM": uninstrumented hardware upper bound
  kStdHytm,      ///< "Standard HyTM": instrumented reads+writes, hardware-only
  kTl2,          ///< "TL2": the software baseline (also the calibration run)
  kRh1Fast,      ///< "RH1 Fast": RH1 fast path only, hardware retries
  kRh1Mix10,     ///< "RH1 Mixed 10": 10% of aborts retried on the slow path
  kRh1Mix100,    ///< "RH1 Mixed 100": every abort retried on the slow path
  kHybridNorec,  ///< Hybrid NOrec: global-seqlock hybrid (coarse conflicts)
  kPhasedTm,     ///< Phased TM: global hardware/software phase switch
  kTatas,        ///< TATAS lock elision: HtmOnly with a bounded attempt budget
                 ///< (the contention scenario's calibration floor)
};

[[nodiscard]] inline const char* to_string(Series s) {
  switch (s) {
    case Series::kHtm: return "HTM";
    case Series::kStdHytm: return "StandardHyTM";
    case Series::kTl2: return "TL2";
    case Series::kRh1Fast: return "RH1-Fast";
    case Series::kRh1Mix10: return "RH1-Mix10";
    case Series::kRh1Mix100: return "RH1-Mix100";
    case Series::kHybridNorec: return "HybridNOrec";
    case Series::kPhasedTm: return "PhasedTM";
    case Series::kTatas: return "TATAS-Elide";
  }
  return "?";
}

/// Every protocol series — for scenarios that sweep the whole matrix (the
/// dynamic workloads run every protocol by design).
[[nodiscard]] inline std::vector<Series> all_series() {
  return {Series::kHtm,      Series::kStdHytm,    Series::kTl2,
          Series::kRh1Fast,  Series::kRh1Mix10,   Series::kRh1Mix100,
          Series::kHybridNorec, Series::kPhasedTm};
}

/// Constructs the protocol instance a series names — over `universe`, with
/// the paper's configuration for that series and `inject_bp` injection —
/// and invokes `fn(tm)` on it. The single source of series -> protocol
/// wiring, shared by the point runner below and by scenarios that drive a
/// series through a different loop (run_phased, run_open_loop).
template <class H, class Fn>
decltype(auto) with_series_tm(TmUniverse<H>& universe, Series series,
                              std::uint32_t inject_bp, Fn&& fn) {
  switch (series) {
    case Series::kHtm: {
      typename HtmOnly<H>::Config cfg;
      cfg.inject_abort_bp = inject_bp;
      HtmOnly<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kStdHytm: {
      typename StandardHytm<H>::Config cfg;
      cfg.hardware_only = true;  // the paper's best-case Standard HyTM
      cfg.inject_abort_bp = inject_bp;
      StandardHytm<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kRh1Fast:
    case Series::kRh1Mix10:
    case Series::kRh1Mix100: {
      typename HybridTm<H>::Config cfg;
      cfg.inject_abort_bp = inject_bp;
      cfg.slow_retry_percent =
          series == Series::kRh1Fast ? 0 : (series == Series::kRh1Mix10 ? 10 : 100);
      HybridTm<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kHybridNorec: {
      typename HybridNorec<H>::Config cfg;
      cfg.inject_abort_bp = inject_bp;
      HybridNorec<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kPhasedTm: {
      typename PhasedTm<H>::Config cfg;
      cfg.inject_abort_bp = inject_bp;
      PhasedTm<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kTatas: {
      typename HtmOnly<H>::Config cfg;
      cfg.inject_abort_bp = inject_bp;
      cfg.max_hw_attempts = 8;
      cfg.capacity_retries = 2;
      HtmOnly<H> tm(universe, cfg);
      return fn(tm);
    }
    case Series::kTl2: break;
  }
  Tl2<H> tm(universe);
  return fn(tm);
}

/// The paper's constant-structure transaction (§3.1): a uniform key from
/// [0, 2·size) — about half of them stored — then the update coin, then
/// (for an update) the value, drawn in that order. `ds` is any of the
/// constant structures (workloads/constant_*.h).
template <class DS>
[[nodiscard]] auto lookup_update_op(const DS& ds, unsigned write_percent) {
  return [&ds, write_percent](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
    const std::uint64_t key = rng.below(2 * ds.size());
    if (rng.percent_chance(write_percent)) {
      tm.atomically(ctx, [&](auto& tx) { (void)ds.update(tx, key, rng.next_u64()); });
    } else {
      TmWord sink = 0;
      tm.atomically(ctx, [&](auto& tx) { (void)ds.lookup(tx, key, &sink); });
      do_not_optimize(sink);
    }
  };
}

/// The MPMC queue transaction: `share_percent` of the `threads` workers
/// enqueue (at least one, never all), the rest dequeue. A single-threaded
/// run alternates roles by coin flip (an MPMC queue needs both sides to
/// make progress).
[[nodiscard]] inline auto queue_op(const TxnQueue& queue, unsigned threads,
                                   unsigned share_percent) {
  const unsigned producers =
      threads <= 1 ? 1 : std::clamp(threads * share_percent / 100, 1u, threads - 1);
  return [&queue, threads, producers](auto& tm, auto& ctx, Xoshiro256& rng, unsigned tid) {
    const bool produce = threads == 1 ? rng.percent_chance(50) : tid < producers;
    if (produce) {
      const TmWord v = rng.next_u64();
      tm.atomically(ctx, [&](auto& tx) { (void)queue.enqueue(tx, v); });
    } else {
      TmWord sink = 0;
      tm.atomically(ctx, [&](auto& tx) { (void)queue.dequeue(tx, &sink); });
      do_not_optimize(sink);
    }
  };
}

/// The point hook of a scenario that adds no metrics of its own.
struct NoPointMetrics {
  template <class H>
  void operator()(report::Point&, const ThroughputResult&, TmUniverse<H>&) const {}
};

/// THE point runner, the unit of every throughput sweep: one series at one
/// thread count for opt.seconds, on a fresh universe built from `ucfg` (so
/// no point inherits stripe, clock or log state from the one before), with
/// `inject_bp` injected aborts. Fills `p` with fill_point plus the PMU
/// metrics, then hands the point, the run and its universe to `metrics` for
/// the scenario's own metrics (fences or clock publishes per commit).
///
/// `op(tm, ctx, rng, tid)` must execute exactly one transaction.
template <class H, class Op, class Metrics = NoPointMetrics>
ThroughputResult run_point(report::Point& p, const UniverseConfig& ucfg, const Options& opt,
                           Series series, unsigned threads, std::uint32_t inject_bp, Op&& op,
                           const Metrics& metrics = {}) {
  TmUniverse<H> universe(ucfg);
  const pmu::RtmTotalsSnapshot pmu0 = pmu_snapshot(universe);
  const ThroughputResult r = with_series_tm(universe, series, inject_bp, [&](auto& tm) {
    return run_throughput(tm, threads, opt.seconds, op, opt.pin);
  });
  fill_point(p, r);
  add_pmu_metrics(p, universe, pmu0);
  metrics(p, r, universe);
  return r;
}

/// Paper §3.1 calibration: the TL2 point of this workload at this thread
/// count (run for opt.calib_seconds), and its abort ratio converted to
/// injection basis points.
template <class H, class Op, class Metrics = NoPointMetrics>
std::uint32_t calibrate_tl2(report::Point& p, const UniverseConfig& ucfg, const Options& opt,
                            unsigned threads, Op&& op, const Metrics& metrics = {}) {
  Options calib = opt;
  calib.seconds = opt.calib_seconds;
  const ThroughputResult r = run_point<H>(p, ucfg, calib, Series::kTl2, threads, 0, op, metrics);
  return AbortInjector::from_ratio(r.abort_ratio()).rate_bp();
}

/// Adds one series per entry of `series_list` (named with `suffix`) to
/// `table` and returns the index of the first.
inline std::size_t add_series(report::TableData& table, const std::vector<Series>& series_list,
                              const char* suffix = "") {
  const std::size_t first = table.series.size();
  for (const Series s : series_list) table.add_series(std::string(to_string(s)) + suffix);
  return first;
}

/// One x value of the paper's calibrate-then-run sweep over the series of
/// `series_list` (the first is table.series[first]; one must be TL2): the
/// TL2 run calibrates and is the TL2 series' point, then every other series
/// runs with the calibrated injection — or none, with `inject = false`, for
/// scenarios designed as "no software pressure" (ext_hybrids table a).
template <class H, class Op, class Metrics = NoPointMetrics>
void add_calibrated_point(report::TableData& table, std::size_t first,
                          const std::vector<Series>& series_list, const UniverseConfig& ucfg,
                          const Options& opt, double x, unsigned threads, Op&& op,
                          bool inject = true, const Metrics& metrics = {}) {
  const auto tl2 = static_cast<std::size_t>(
      std::find(series_list.begin(), series_list.end(), Series::kTl2) - series_list.begin());
  const std::uint32_t bp =
      calibrate_tl2<H>(table.series[first + tl2].add_point(x), ucfg, opt, threads, op, metrics);
  for (std::size_t i = 0; i < series_list.size(); ++i) {
    if (i == tl2) continue;
    run_point<H>(table.series[first + i].add_point(x), ucfg, opt, series_list[i], threads,
                 inject ? bp : 0, op, metrics);
  }
}

/// Standard figure loop: adds one series per protocol (named with
/// `series_suffix`, so a scenario can sweep two structures into one table —
/// scenario_mutating_tree's constant-vs-mutating comparison) and one
/// add_calibrated_point per thread count.
template <class H, class Op, class Metrics = NoPointMetrics>
void run_figure(const UniverseConfig& ucfg, report::TableData& table,
                const std::vector<Series>& series_list, const Options& opt, Op&& op,
                bool inject = true, const char* series_suffix = "",
                const Metrics& metrics = {}) {
  const std::size_t first = add_series(table, series_list, series_suffix);
  for (const unsigned threads : opt.threads) {
    add_calibrated_point<H>(table, first, series_list, ucfg, opt, threads, threads, op, inject,
                            metrics);
  }
}

/// A copy of `src` under another title and primary metric: the same
/// series and points, so the regression gate — which gates a table by its
/// primary metric — sees that metric too.
inline report::TableData& add_view(report::BenchReport& rep, const report::TableData& src,
                                   std::string title, std::string primary_metric) {
  report::TableData& t =
      rep.add_table(std::move(title), src.style, src.x_name, std::move(primary_metric));
  t.series = src.series;
  return t;
}

/// `count` per committed transaction of the run (per run when none
/// committed).
[[nodiscard]] inline double per_commit(const ThroughputResult& r, std::uint64_t count) {
  return static_cast<double>(count) /
         (r.stats.commits > 0 ? static_cast<double>(r.stats.commits) : 1.0);
}

/// The largest requested thread count, where every sweep at one fixed
/// thread count runs.
[[nodiscard]] inline unsigned max_threads(const Options& opt) {
  return *std::max_element(opt.threads.begin(), opt.threads.end());
}

/// Deadline-driven timing loop for the micro scenarios: runs `f` in batches
/// until `seconds` elapse and returns the mean nanoseconds per call.
template <class F>
[[nodiscard]] double ns_per_op(double seconds, F&& f) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up (first-touch, lazy init)
  const auto t0 = clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::uint64_t iters = 0;
  auto now = t0;
  do {
    for (int i = 0; i < 32; ++i) f();
    iters += 32;
    now = clock::now();
  } while (now < deadline);
  return std::chrono::duration<double, std::nano>(now - t0).count() /
         static_cast<double>(iters);
}

}  // namespace rhtm::bench
