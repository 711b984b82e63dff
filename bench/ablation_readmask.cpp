// Ablation A4 — RH2 visible-read publication: the paper argues for
// fetch-and-add over a CAS loop (§4.1). Forced-RH2 commits over a shared
// array, both mask RMW flavours, simulated substrate.

#include "registry.h"
#include "workloads/random_array.h"

namespace rhtm::bench {

RHTM_SCENARIO(ablation_readmask, "§4.1 (A4)",
              "RH2 visible-read publication: fetch-add vs CAS loop") {
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/16384 len=32 write=25%, forced RH2");
  report::TableData& table = rep.add_table(
      "Ablation A4 - RH2 read-mask publication: fetch-add vs CAS loop (sim)");

  for (const MaskRmw mode : {MaskRmw::kFetchAdd, MaskRmw::kCasLoop}) {
    report::SeriesData& series = table.add_series(to_string(mode));
    for (const unsigned threads : {1u, 4u, 8u}) {
      UniverseConfig ucfg;
      ucfg.stripe.mask_rmw = mode;
      TmUniverse<HtmSim> universe(ucfg);
      RandomArray array(16 * 1024);
      SimHybridTm::Config cfg;
      cfg.force_rh2 = true;
      cfg.inject_abort_bp = 10000;  // every op through the RH2 slow commit
      SimHybridTm tm(universe, cfg);

      const ThroughputResult r =
          run_throughput(tm, threads, opt.seconds * 2,
                         [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
                           m.atomically(ctx, [&](auto& tx) {
                             do_not_optimize(array.op(tx, rng, 32, 25));
                           });
                         },
                         opt.pin);
      fill_point(series.add_point(threads), r);
    }
  }
  return rep;
}

}  // namespace rhtm::bench
