// NUMA geometry scenario — the socket axis of the universe (core/topology.h,
// ARCHITECTURE §10). Workers are placed by the scenario itself from the same
// Topology object the universe shards over (compact = fill one socket first,
// scatter = round-robin across sockets), so placement and sharding agree by
// construction. Five views:
//
//  1. Compact-vs-scatter throughput per protocol (the headline table: the
//     same workload with all threads on one socket vs spread across all).
//  2. The same runs re-keyed as cross_socket_penalty = compact_ops /
//     scatter_ops — the gate-visible lower-is-better ratio (1.0 = placement
//     does not matter; scripts/check_regression.py flags a *rising*
//     RH1-Fast/TL2 penalty ratio).
//  3. Cross-socket transfer-rate sweep on account_store: accounts are
//     partitioned per socket, scatter-placed workers draw the destination
//     from a remote partition with probability x% — the knob that dials
//     cross-socket data flow from zero to always.
//  4. Numa-mode sweep (off | shard | shard+clock) at fixed remote rate:
//     clock_publishes_per_commit is the acceptance metric — shard+clock
//     pays a global clock write only on cross-socket validation failure,
//     where off/GV1 pays one per software commit.
//  5. Per-socket thread sweep: each socket measured in isolation
//     (Point::socket carries the geometry into BENCH_numa.json).
//
// On a single-socket host (or when sysfs discovery falls back) the scenario
// splits the CPU list into a fake 2-socket topology, so every sharding and
// cached-clock path is exercised everywhere; the `topology` meta records
// which geometry was measured.

#include <algorithm>

#include "registry.h"
#include "workloads/account_store.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kAccounts = 4096;
constexpr TmWord kInitialBalance = 1 << 16;

/// The software baseline plus the two RH1 flavours: the protocols whose
/// clock traffic the cached mode is designed to localize.
const std::vector<Series> kNumaSeries = {Series::kTl2, Series::kRh1Fast, Series::kRh1Mix100};

const NumaMode kNumaModes[] = {NumaMode::kOff, NumaMode::kShard, NumaMode::kShardClock};

/// The geometry this scenario measures: the discovered topology when it is
/// genuinely multi-socket, otherwise the CPU list split into two fake
/// sockets (so sharding/caching paths run on single-socket CI hosts too).
[[nodiscard]] Topology scenario_topology() {
  const Topology& sys = Topology::system();
  if (sys.discovered() && sys.socket_count() > 1) return sys;
  const unsigned n = std::max(2u, sys.cpu_count());
  std::vector<unsigned> lo;
  std::vector<unsigned> hi;
  for (unsigned c = 0; c < n; ++c) ((c < (n + 1) / 2) ? lo : hi).push_back(c);
  return Topology::fake({lo, hi});
}

/// Pins the calling worker to `cpu` (best effort) and forces its clock-cache
/// home socket to the topology's socket for that cpu — so the cached-clock
/// geometry is deterministic even when the topology is the fake split (or
/// the pin syscall failed). Returns the home socket.
unsigned place_on_cpu(const Topology& topo, unsigned cpu) {
  (void)pin_this_thread_to_cpu(cpu);
  const int s = topo.socket_of_cpu(cpu);
  const unsigned socket = s >= 0 ? static_cast<unsigned>(s) : 0;
  set_thread_socket_override(static_cast<int>(socket));
  return socket;
}

/// Account-transfer op with scenario-owned placement. Accounts are
/// partitioned per socket; `from` is always socket-local, `to` crosses into
/// another socket's partition with probability remote_pct. Placement runs
/// once per worker thread (run_worker_pool spawns fresh threads per run).
auto numa_transfer_op(const AccountStore& store, const Topology& topo, bool scatter,
                      unsigned remote_pct) {
  return [&store, &topo, scatter, remote_pct](auto& tm, auto& ctx, Xoshiro256& rng,
                                              unsigned tid) {
    static thread_local bool placed = false;
    static thread_local unsigned my_socket = 0;
    if (!placed) {
      my_socket = place_on_cpu(topo, scatter ? topo.scatter_cpu(tid) : topo.compact_cpu(tid));
      placed = true;
    }
    const unsigned nsock = topo.socket_count();
    const std::uint64_t per = store.accounts() / nsock;
    const bool remote = nsock > 1 && remote_pct > 0 && rng.percent_chance(remote_pct);
    const unsigned to_socket =
        remote ? (my_socket + 1 + static_cast<unsigned>(rng.next_u64() % (nsock - 1))) % nsock
               : my_socket;
    const std::uint64_t from = my_socket * per + rng.next_u64() % per;
    const std::uint64_t to = to_socket * per + rng.next_u64() % per;
    const TmWord amount = 1 + rng.next_u64() % 8;
    tm.atomically(ctx, [&](auto& tx) { (void)store.transfer(tx, from, to, amount); });
  };
}

/// The same op pinned inside ONE socket (the per-socket sweep): worker tid
/// walks socket `socket`'s CPU list; all accounts stay in that partition.
auto socket_local_op(const AccountStore& store, const Topology& topo, unsigned socket) {
  return [&store, &topo, socket](auto& tm, auto& ctx, Xoshiro256& rng, unsigned tid) {
    static thread_local bool placed = false;
    if (!placed) {
      const auto& cpus = topo.cpus_of_socket(socket);
      place_on_cpu(topo, cpus[tid % cpus.size()]);
      placed = true;
    }
    const std::uint64_t per = store.accounts() / topo.socket_count();
    const std::uint64_t from = socket * per + rng.next_u64() % per;
    const std::uint64_t to = socket * per + rng.next_u64() % per;
    tm.atomically(ctx, [&](auto& tx) { (void)store.transfer(tx, from, to, 1); });
  };
}

/// The point hook: the run's clock traffic per commit, read from the
/// point's own fresh universe.
constexpr auto kClockMetrics = [](report::Point& p, const ThroughputResult& r, auto& universe) {
  p.set("clock_publishes_per_commit", per_commit(r, universe.clock().global_publishes()));
  p.set("clock_cache_refreshes_per_commit", per_commit(r, universe.clock().local_publishes()));
};

template <class H>
void run_numa_scenario(const Options& opt, report::BenchReport& rep, const Topology& topo) {
  const std::string substrate(opt.substrate_name());
  const std::string numa_name(to_string(opt.numa));
  AccountStore store(kAccounts, kInitialBalance);

  // One series point on a universe built for (mode, topo). No TL2
  // calibration injection — placement effects are the measurement;
  // injected aborts would smear them — and no driver pinning: the ops
  // place their own workers.
  Options run = opt;
  run.pin = PinMode::kNone;
  const auto point = [&](report::Point& p, NumaMode mode, Series series, unsigned threads,
                         const auto& op) {
    UniverseConfig ucfg = universe_config(opt);
    ucfg.numa = mode;
    ucfg.topology = &topo;
    return run_point<H>(p, ucfg, run, series, threads, 0, op, kClockMetrics);
  };

  // -- tables 1+2: compact vs scatter, penalty ratio -----------------------
  report::TableData& placement = rep.add_table(
      "Compact vs scatter placement, socket-partitioned transfers (50% remote, numa=" +
      numa_name + ", substrate=" + substrate + ")");
  report::TableData& penalty = rep.add_table(
      "Cross-socket placement penalty (compact_ops/scatter_ops, lower is better, numa=" +
          numa_name + ")",
      report::TableStyle::kSweep, "threads", "cross_socket_penalty");
  for (const Series s : kNumaSeries) {
    placement.add_series(std::string(to_string(s)) + "/compact");
    placement.add_series(std::string(to_string(s)) + "/scatter");
    penalty.add_series(to_string(s));
  }
  for (const unsigned threads : opt.threads) {
    for (std::size_t i = 0; i < kNumaSeries.size(); ++i) {
      const Series s = kNumaSeries[i];
      const auto c_ops = static_cast<double>(
          point(placement.series[2 * i].add_point(threads), opt.numa, s, threads,
                numa_transfer_op(store, topo, false, 50))
              .total_ops);
      const auto s_ops = static_cast<double>(
          point(placement.series[2 * i + 1].add_point(threads), opt.numa, s, threads,
                numa_transfer_op(store, topo, true, 50))
              .total_ops);
      report::Point& p = penalty.series[i].add_point(threads);
      p.set("cross_socket_penalty", s_ops > 0 ? c_ops / s_ops : 0.0);
      p.set("compact_ops", c_ops);
      p.set("scatter_ops", s_ops);
    }
  }

  // -- table 3: remote-transfer-rate sweep ---------------------------------
  const unsigned sweep_threads = max_threads(opt);
  report::TableData& remote = rep.add_table(
      "Cross-socket transfer-rate sweep, scatter placement (threads=" +
          std::to_string(sweep_threads) + ", numa=" + numa_name + ")",
      report::TableStyle::kSweep, "remote_pct", "total_ops");
  add_series(remote, kNumaSeries);
  for (const unsigned pct : {0u, 25u, 50u, 100u}) {
    for (std::size_t i = 0; i < kNumaSeries.size(); ++i) {
      point(remote.series[i].add_point(pct), opt.numa, kNumaSeries[i], sweep_threads,
            numa_transfer_op(store, topo, true, pct));
    }
  }

  // -- table 4: numa-mode sweep (the acceptance view) ----------------------
  report::TableData& modes = rep.add_table(
      "Numa-mode sweep: clock publishes per commit (x: 0=off 1=shard 2=shard+clock, "
      "scatter, 50% remote, threads=" + std::to_string(sweep_threads) + ")",
      report::TableStyle::kSweep, "numa_mode", "clock_publishes_per_commit");
  add_series(modes, kNumaSeries);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t i = 0; i < kNumaSeries.size(); ++i) {
      point(modes.series[i].add_point(static_cast<double>(m)), kNumaModes[m], kNumaSeries[i],
            sweep_threads, numa_transfer_op(store, topo, true, 50));
    }
  }

  // -- table 5: per-socket thread sweep (Point::socket geometry) -----------
  report::TableData& per_socket = rep.add_table(
      "Per-socket thread sweep, socket-local transfers (numa=" + numa_name + ")");
  for (unsigned s = 0; s < topo.socket_count(); ++s) {
    for (const Series series : kNumaSeries) {
      report::SeriesData& sd =
          per_socket.add_series(std::string(to_string(series)) + "/socket" + std::to_string(s));
      for (const unsigned threads : {1u, 2u}) {
        report::Point& p = sd.add_point(threads);
        p.socket = static_cast<int>(s);
        point(p, opt.numa, series, threads, socket_local_op(store, topo, s));
      }
    }
  }
}

}  // namespace

RHTM_SCENARIO(numa, "extension (NUMA geometry)",
              "socket topology axis: compact-vs-scatter penalty, cross-socket "
              "transfer sweep, numa-mode clock-publish comparison") {
  const Topology topo = scenario_topology();
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "socket-partitioned account transfers");
  rep.set_meta("accounts", std::to_string(kAccounts));
  rep.set_meta("topology", Topology::system().discovered() && Topology::system().socket_count() > 1
                               ? "discovered"
                               : "fake-2-socket-split");
  rep.set_meta("topology_sockets", std::to_string(topo.socket_count()));
  rep.set_meta("topology_cpus", std::to_string(topo.cpu_count()));
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) {
    run_numa_scenario<H>(opt, rep, topo);
  });
  return rep;
}

}  // namespace rhtm::bench
