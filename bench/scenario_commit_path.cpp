// Extension scenario — the commit pipeline under the microscope. Sweeps the
// write-set size per protocol and reports, for each point, the nanoseconds
// spent in the commit machinery (time inside atomically() minus time inside
// the body, cycle-attributed like fig2_breakdown) and the capacity-abort
// rate of the hardware commit transactions.
//
// The body is deliberately hostile to naive footprint accounting: reads are
// zipfian re-reads of a small hot set (the hashtable/zipfian access shape),
// so a read-set that logs duplicate stripes inflates the RH1 reduced
// commit's hardware footprint with work that validates nothing — exactly
// the instrumentation-cost axis Alistarh et al. and Brown & Ravi identify.
// The before/after BENCH_commit_path.json diff of the stripe-dedup overhaul
// is cited in docs/BENCHMARKS.md.

#include "registry.h"
#include "workloads/zipf.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kReadCells = 256;   ///< hot read set (zipfian re-read target)
constexpr std::size_t kMaxWrites = 1024;  ///< distinct cells the largest point writes
constexpr double kZipfTheta = 0.99;       ///< YCSB-default skew
constexpr std::size_t kHtmBudget = 512;   ///< read AND write budget, in tracked entries
constexpr unsigned kSweepThreads = 2;     ///< table 2's fixed thread count

const std::size_t kWriteSizes[] = {4, 16, 64, 128, 256, 1024};

[[nodiscard]] UniverseConfig commit_path_universe_config() {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = kHtmBudget;
  ucfg.htm.max_write_set = kHtmBudget;
  return ucfg;
}

/// One transaction: 2W zipfian reads of the hot set (duplicate-stripe
/// heavy), then W distinct-cell writes.
auto commit_path_op(const std::vector<TVar<TmWord>>& reads,
                    const std::vector<TVar<TmWord>>& writes, const ZipfianGenerator& zipf,
                    std::size_t w) {
  return [&reads, &writes, &zipf, w](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
    tm.atomically(ctx, [&](auto& tx) {
      TmWord sum = 0;
      for (std::size_t i = 0; i < 2 * w; ++i) {
        sum += reads[zipf.next(rng)].read(tx);
      }
      for (std::size_t i = 0; i < w; ++i) {
        writes[i].write(tx, sum + i);
      }
      do_not_optimize(sum);
    });
  };
}

/// Single-thread timed window for one (series, W) point: wall-clock ns per
/// transaction, the commit share of it (run_breakdown's cycle
/// attribution), and the capacity-abort rate over all hardware commit
/// attempts in the window.
template <class Tm, class Op>
void time_commit_point(report::SeriesData& series, Tm& tm, double seconds, const Op& op,
                       std::size_t w) {
  const BreakdownResult b = run_breakdown<false, false>(tm, seconds, op);
  const TxStats& d = b.stats;
  std::uint64_t attempts = 0;
  for (const std::uint64_t a : d.attempts_by_path) attempts += a;
  const double capacity_aborts = static_cast<double>(
      d.aborts_by_cause[static_cast<std::size_t>(AbortCause::kHtmCapacity)]);

  report::Point& p = series.add_point(static_cast<double>(w));
  const double per_op = b.ops > 0 ? b.seconds * 1e9 / static_cast<double>(b.ops) : 0.0;
  p.set("commit_ns", per_op * b.commit_pct / 100.0);
  p.set("tx_ns", per_op);
  p.set("capacity_abort_rate",
        attempts > 0 ? capacity_aborts / static_cast<double>(attempts) : 0.0);
  const double commits = static_cast<double>(d.commits);
  const auto pct = [&](ExecPath path) {
    return commits > 0
               ? 100.0 * static_cast<double>(
                             d.commits_by_path[static_cast<std::size_t>(path)]) / commits
               : 0.0;
  };
  p.set("rh1_slow_pct", pct(ExecPath::kRh1Slow));
  p.set("rh2_pct", pct(ExecPath::kRh2Slow));
  p.set("slow_slow_pct", pct(ExecPath::kRh2SlowSlow));
}

template <class H>
void run_commit_path(const Options& opt, report::BenchReport& rep) {
  std::vector<TVar<TmWord>> reads(kReadCells);
  std::vector<TVar<TmWord>> writes(kMaxWrites);
  const ZipfianGenerator zipf(kReadCells, kZipfTheta);

  // ---- table 1: single-thread commit latency + escalation ----------------
  TmUniverse<H> universe(commit_path_universe_config());
  report::TableData& lat = rep.add_table(
      "Commit-path cost vs write-set size (2W zipfian re-reads, HTM budget=" +
          std::to_string(kHtmBudget) + " entries, 1 thread, substrate=" +
          std::string(opt.substrate_name()) + ")",
      report::TableStyle::kWide, "writes", "commit_ns");
  report::SeriesData& tl2_series = lat.add_series("TL2");
  report::SeriesData& rh1_series = lat.add_series("RH1-Slow");
  report::SeriesData& rh2_series = lat.add_series("RH2");
  for (const std::size_t w : kWriteSizes) {
    const auto op = commit_path_op(reads, writes, zipf, w);
    {
      Tl2<H> tm(universe);
      time_commit_point(tl2_series, tm, opt.seconds, op, w);
    }
    {
      typename HybridTm<H>::Config cfg;
      cfg.force_slow_path = true;  // software body + reduced hardware commit
      HybridTm<H> tm(universe, cfg);
      time_commit_point(rh1_series, tm, opt.seconds, op, w);
    }
    {
      typename HybridTm<H>::Config cfg;
      cfg.force_rh2 = true;  // visible reads + write-set-only hardware commit
      HybridTm<H> tm(universe, cfg);
      time_commit_point(rh2_series, tm, opt.seconds, op, w);
    }
  }

  // ---- table 2: throughput sweep over W (gate-visible RH1-Fast/TL2) ------
  report::TableData& thr = rep.add_table(
      "Commit-path throughput vs write-set size (" + std::to_string(kSweepThreads) +
          " threads, substrate=" + std::string(opt.substrate_name()) + ")",
      report::TableStyle::kSweep, "writes", "total_ops");
  const std::vector<Series> sweep = {Series::kTl2, Series::kRh1Fast, Series::kRh1Mix100};
  add_series(thr, sweep);
  for (const std::size_t w : kWriteSizes) {
    add_calibrated_point<H>(thr, 0, sweep, commit_path_universe_config(), opt,
                            static_cast<double>(w), kSweepThreads,
                            commit_path_op(reads, writes, zipf, w));
  }
}

}  // namespace

RHTM_SCENARIO(commit_path, "§2.1 (extension)",
              "commit pipeline: commit-ns + capacity-abort rate vs write-set size") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "zipfian re-reads + distinct writes");
  rep.set_meta("read_cells", std::to_string(kReadCells));
  rep.set_meta("zipf_theta", std::to_string(kZipfTheta).substr(0, 4));
  rep.set_meta("htm_budget_entries", std::to_string(kHtmBudget));
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_commit_path<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
