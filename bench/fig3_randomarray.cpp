// Figure 3 (right) — 128K Random Array: speedup of RH1 Fast over Standard
// HyTM at 20 threads, for transaction lengths {400, 200, 100, 40} and write
// percentages {0, 20, 50, 90}.
//
// Paper shape: the speedup decreases as the write fraction grows (RH1's
// writes are instrumented too) but stays ≥ ~1.3× even at 90% writes for
// long transactions, because Standard HyTM additionally *reads* metadata on
// every access, generating far more coherence traffic.

#include "registry.h"
#include "workloads/random_array.h"

namespace rhtm::bench {
namespace {

constexpr unsigned kLengths[] = {400, 200, 100, 40};
constexpr unsigned kWritePercents[] = {0, 20, 50, 90};

template <class H>
void run_fig3_array(const Options& opt, report::BenchReport& rep) {
  RandomArray array(128 * 1024);
  const unsigned threads = max_threads(opt);
  rep.set_meta("threads", std::to_string(threads));

  const UniverseConfig ucfg = universe_config(opt);
  report::TableData& table = rep.add_table(
      "Figure 3 right - 128K Random Array, RH1-Fast speedup vs Standard HyTM, " +
          std::to_string(threads) + " threads (substrate=" + opt.substrate_name() + ")",
      report::TableStyle::kSweep, "write_percent", "speedup");
  for (const unsigned len : kLengths) table.add_series("len" + std::to_string(len));

  for (const unsigned write_pct : kWritePercents) {
    for (std::size_t li = 0; li < std::size(kLengths); ++li) {
      const unsigned len = kLengths[li];
      auto op = [&array, len, write_pct](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
        tm.atomically(ctx, [&](auto& tx) { do_not_optimize(array.op(tx, rng, len, write_pct)); });
      };
      // The three runs fold into one speedup point; each fills this scratch.
      report::Point run;
      const std::uint32_t inject_bp = calibrate_tl2<H>(run, ucfg, opt, threads, op);
      const auto rh1 = static_cast<double>(
          run_point<H>(run, ucfg, opt, Series::kRh1Fast, threads, inject_bp, op).total_ops);
      const auto hytm = static_cast<double>(
          run_point<H>(run, ucfg, opt, Series::kStdHytm, threads, inject_bp, op).total_ops);
      report::Point& p = table.series[li].add_point(write_pct);
      p.set("speedup", hytm > 0 ? rh1 / hytm : 0.0);
      p.set("rh1_total_ops", rh1);
      p.set("hytm_total_ops", hytm);
    }
  }
}

}  // namespace

RHTM_SCENARIO(fig3_randomarray, "Fig. 3 (right)",
              "128K random array: RH1-Fast speedup over StdHyTM vs tx length x write %") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "random_array/131072");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_fig3_array<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
