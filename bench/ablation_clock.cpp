// Ablation A1 — global-version-clock policy (paper §2.2).
//
// GV6 never writes the clock on GVNext(): fast-path hardware transactions
// that speculate on the clock stay quiet. GV1 fetch-adds it on every commit,
// so every overlapping pair of hardware transactions conflicts on the clock
// line; GV4 CASes once per racing batch. This bench runs the same RH1-Mixed
// workload under all three policies on the simulated substrate and reports
// throughput and the abort breakdown.

#include "registry.h"
#include "workloads/random_array.h"

namespace rhtm::bench {

RHTM_SCENARIO(ablation_clock, "§2.2 (A1)",
              "GV1 / GV4 / GV6 clock policies: throughput + abort breakdown") {
  RandomArray array(64 * 1024);
  const unsigned threads = 4;

  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/65536 len=64 write=20%");
  report::TableData& table = rep.add_table(
      "Ablation A1 - clock policy (RH1 Mixed 100, random array, " +
          std::to_string(threads) + " threads, sim)",
      report::TableStyle::kWide);

  for (const GvMode mode : {GvMode::kGv1, GvMode::kGv4, GvMode::kGv6}) {
    UniverseConfig ucfg;
    ucfg.gv_mode = mode;
    TmUniverse<HtmSim> universe(ucfg);
    SimHybridTm::Config cfg;
    cfg.slow_retry_percent = 100;
    cfg.inject_abort_bp = 500;  // a trickle of slow-path traffic
    SimHybridTm tm(universe, cfg);

    const ThroughputResult r =
        run_throughput(tm, threads, opt.seconds * 4,
                       [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
                         m.atomically(ctx, [&](auto& tx) {
                           do_not_optimize(array.op(tx, rng, 64, 20));
                         });
                       },
                       opt.pin);
    report::Point& p = table.add_series(to_string(mode)).add_point(threads);
    p.set("total_ops", static_cast<double>(r.total_ops));
    p.set("abort_ratio", r.abort_ratio());
    p.set("htm_conflicts",
          static_cast<double>(
              r.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kHtmConflict)]));
    p.set("stm_validation",
          static_cast<double>(
              r.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kStmValidation)]));
  }
  return rep;
}

}  // namespace rhtm::bench
