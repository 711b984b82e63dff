// Ablation A2 — stripe-table geometry: fewer stripes and coarser granules
// alias more addresses onto the same version word, producing false conflicts
// for the software paths. TL2 over a write-heavy random array, simulated
// substrate.

#include "registry.h"
#include "workloads/random_array.h"

namespace rhtm::bench {

RHTM_SCENARIO(ablation_stripes, "§2 (A2)",
              "Stripe-table geometry: false conflicts from address aliasing") {
  const unsigned threads = 4;

  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/65536 len=32 write=50%");
  report::TableData& table = rep.add_table(
      "Ablation A2 - stripe geometry (TL2, random array 64K, " + std::to_string(threads) +
          " threads, sim)",
      report::TableStyle::kWide, "granularity_log2");

  for (const unsigned log2_count : {10u, 14u, 18u}) {
    report::SeriesData& series = table.add_series("stripes=2^" + std::to_string(log2_count));
    for (const unsigned gran : {3u, 5u, 8u}) {
      UniverseConfig ucfg;
      ucfg.stripe.log2_count = log2_count;
      ucfg.stripe.granularity_log2 = gran;
      TmUniverse<HtmSim> universe(ucfg);
      RandomArray array(64 * 1024);
      SimTl2 tm(universe);

      const ThroughputResult r =
          run_throughput(tm, threads, opt.seconds * 2,
                         [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
                           m.atomically(ctx, [&](auto& tx) {
                             do_not_optimize(array.op(tx, rng, 32, 50));
                           });
                         },
                         opt.pin);
      report::Point& p = series.add_point(gran);
      p.set("total_ops", static_cast<double>(r.total_ops));
      p.set("abort_ratio", r.abort_ratio());
    }
  }
  return rep;
}

}  // namespace rhtm::bench
