// Contention scenario — adaptive contention management (core/contention.h)
// against the paper's fixed coins/budgets, on the workloads where the policy
// choice matters:
//
//   (a) contended:   Zipfian theta=0.99 over a small array — a few hot
//                    stripes, so hardware retries mostly burn work and the
//                    adaptive manager should escalate to software early;
//   (b) uncontended: uniform access over a large array — hardware wins, and
//                    the adaptive manager must stay out of the way (< 5%
//                    regression is the acceptance bar);
//   (c) capacity:    write sets sized past the substrate's write capacity,
//                    so attribution (capacity vs conflict) decides whether
//                    backoff helps at all.
//
// Series are named "<protocol>/<policy>" so the regression gate can compare
// e.g. RH1-Mix100/adaptive against RH1-Mix100/fixed directly. TL2 rides
// along as the policy-independent software reference, and TATAS-Elide is
// the lock-elision floor: a protocol x policy whose throughput falls below
// the elided global lock is not earning its speculation.
//
// `wasted_speculation_pct` (bench_common.h) is the headline cost metric:
// hardware-cause aborts per completed transaction.

#include "registry.h"
#include "workloads/random_array.h"
#include "workloads/zipf.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kHotWords = 1024;         // power of two: see scatter()
constexpr std::size_t kColdWords = 128 * 1024;  // uncontended working set

/// Bijectively scatters Zipfian ranks across the (power-of-two sized) hot
/// array so the skew measures stripe contention, not adjacent-rank sharing.
constexpr std::size_t scatter(std::size_t rank) {
  return (rank * 0x9e3779b97f4a7c15ull) & (kHotWords - 1);
}

struct PolicySeries {
  Series series;
  CmPolicy policy;
};

/// The protocol x policy matrix. RH1-Mix100 carries the acceptance gate
/// (adaptive vs fixed); Hybrid NOrec shows the policy on a coarse-conflict
/// hybrid; TATAS-Elide is the elided-lock baseline.
const PolicySeries kMatrix[] = {
    {Series::kRh1Mix100, CmPolicy::kFixed},
    {Series::kRh1Mix100, CmPolicy::kAdaptive},
    {Series::kHybridNorec, CmPolicy::kFixed},
    {Series::kHybridNorec, CmPolicy::kAdaptive},
    {Series::kTatas, CmPolicy::kFixed},
    {Series::kTatas, CmPolicy::kAdaptive},
};
constexpr std::size_t kMatrixSize = sizeof(kMatrix) / sizeof(kMatrix[0]);

[[nodiscard]] std::string series_name(const PolicySeries& ps) {
  return std::string(to_string(ps.series)) + "/" + to_string(ps.policy);
}

/// The matrix series plus the TL2 reference (last) of a fresh table.
void add_matrix_series(report::TableData& table) {
  for (const PolicySeries& ps : kMatrix) table.add_series(series_name(ps));
  table.add_series("TL2");
}

/// Every matrix entry at one x, each on a universe built from `base` with
/// its policy (the policy is universe-wide config).
template <class H, class Op>
void add_matrix_points(report::TableData& table, const Options& opt, const UniverseConfig& base,
                       double x, unsigned threads, std::uint32_t inject_bp, Op&& op) {
  for (std::size_t i = 0; i < kMatrixSize; ++i) {
    UniverseConfig ucfg = base;
    ucfg.cm.policy = kMatrix[i].policy;
    run_point<H>(table.series[i].add_point(x), ucfg, opt, kMatrix[i].series, threads, inject_bp,
                 op);
  }
}

/// Companion view of a throughput table with wasted_speculation_pct as the
/// primary metric — what makes wasted work visible to the regression gate
/// (lower is better for this one).
void add_wasted_view(report::BenchReport& rep, const report::TableData& src) {
  add_view(rep, src, "Wasted speculation pct - " + src.title, "wasted_speculation_pct");
}

/// The thread sweep: per thread count the TL2 reference calibrates, and
/// with `inject` the hardware series get the paper's §3.1 methodology —
/// the TL2 abort ratio injected as hardware-abort pressure. This is what
/// makes the contended table CI-reproducible (RNG-driven aborts, not
/// timing-lottery conflicts on a loaded runner).
template <class H, class Op>
void sweep_threads(report::TableData& table, const Options& opt, const UniverseConfig& base,
                   bool inject, Op&& op) {
  add_matrix_series(table);
  for (const unsigned threads : opt.threads) {
    const std::uint32_t bp =
        calibrate_tl2<H>(table.series[kMatrixSize].add_point(threads), base, opt, threads, op);
    add_matrix_points<H>(table, opt, base, threads, threads, inject ? bp : 0, op);
  }
}

/// The pressure sweep: same matrix, fixed thread count, x = injected abort
/// pressure (basis points). At the high end every hardware attempt dies, so
/// the policies separate sharply and deterministically: fixed Mixed-100
/// wastes one full speculative execution per transaction (50% of attempts),
/// the adaptive manager's software mode cuts that to the probe rate
/// (~1/probe_period).
template <class H, class Op>
void sweep_pressure(report::TableData& table, const Options& opt, const UniverseConfig& base,
                    unsigned threads, Op&& op) {
  add_matrix_series(table);
  for (const std::uint32_t inject_bp : {1000u, 2500u, 5000u, 10000u}) {
    add_matrix_points<H>(table, opt, base, inject_bp, threads, inject_bp, op);
    run_point<H>(table.series[kMatrixSize].add_point(inject_bp), base, opt, Series::kTl2,
                 threads, 0, op);
  }
}

template <class H>
void run_contention(const Options& opt, report::BenchReport& rep) {
  const std::string sub = "(substrate=" + std::string(opt.substrate_name()) + ")";

  {  // (a) contended: hot Zipfian mix, half the accesses are writes.
    RandomArray hot(kHotWords);
    const ZipfianGenerator zipf(kHotWords, 0.99);
    auto op = [&](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
      tm.atomically(ctx, [&](auto& tx) {
        do_not_optimize(hot.op_indexed(tx, rng, /*len=*/16, /*write_percent=*/50,
                                       [&](Xoshiro256& r) { return scatter(zipf.next(r)); }));
      });
    };
    report::TableData& t = rep.add_table(
        "Contended: 1K Zipfian theta=0.99, len=16, 50% writes, calibrated injection " + sub);
    sweep_threads<H>(t, opt, universe_config(opt), /*inject=*/true, op);
    add_wasted_view(rep, t);

    const unsigned pressure_threads = max_threads(opt);
    report::TableData& pt = rep.add_table(
        "Contended Zipfian under abort pressure: " + std::to_string(pressure_threads) +
            " threads, x=inject_bp " + sub,
        report::TableStyle::kSweep, "inject_bp");
    sweep_pressure<H>(pt, opt, universe_config(opt), pressure_threads, op);
    add_wasted_view(rep, pt);
  }

  {  // (b) uncontended: sparse uniform mix — the policy must not get in the way.
    RandomArray cold(kColdWords);
    auto op = [&](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
      tm.atomically(ctx, [&](auto& tx) {
        do_not_optimize(cold.op(tx, rng, /*len=*/8, /*write_percent=*/20));
      });
    };
    sweep_threads<H>(rep.add_table("Uncontended: 128K uniform, len=8, 20% writes " + sub), opt,
                     universe_config(opt), /*inject=*/false, op);
  }

  {  // (c) capacity-stressed: write sets sized past the substrate's write
     // capacity, so most hardware attempts die of kHtmCapacity and the
     // cause-attributed give-up (no pointless backoff) is what's measured.
    UniverseConfig ucfg = universe_config(opt);
    ucfg.htm.max_write_set = 16;  // sim honours this; rtm has its real L1 limit
    RandomArray cold(kColdWords);
    auto op = [&](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
      tm.atomically(ctx, [&](auto& tx) {
        do_not_optimize(cold.op(tx, rng, /*len=*/40, /*write_percent=*/100));
      });
    };
    report::TableData& t = rep.add_table(
        "Capacity-stressed: len=40 all-writes, max_write_set=16 " + sub);
    sweep_threads<H>(t, opt, ucfg, /*inject=*/false, op);
    add_wasted_view(rep, t);
  }
}

}  // namespace

RHTM_SCENARIO(contention, "extension §2.3",
              "Fixed vs adaptive contention management: contended, "
              "uncontended, and capacity-stressed sweeps") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "random_array hot-zipfian / cold-uniform / capacity");
  rep.set_meta("gate", "RH1-Mix100/adaptive vs RH1-Mix100/fixed; lower wasted_speculation_pct");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_contention<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
