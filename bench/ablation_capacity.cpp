// Ablation A3 — the paper's §1.2 headroom claim: the RH1 slow-path commit
// transaction touches *metadata only* (one stripe word per ~4 data words at
// 32-byte stripes), so transactions ~4× larger than the hardware budget can
// still commit with a hardware-assisted commit; beyond that, RH2 and the
// slow-slow path take over. This bench sweeps the transaction footprint on a
// fixed simulated-HTM capacity and reports which path committed.

#include <array>

#include "registry.h"

namespace rhtm::bench {

RHTM_SCENARIO(ablation_capacity, "§1.2 (A3)",
              "fast -> RH1-slow -> RH2 -> slow-slow escalation vs transaction footprint") {
  constexpr std::size_t kCapacity = 128;  // HTM budget, in tracked entries
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = kCapacity;
  ucfg.htm.max_write_set = kCapacity;
  ucfg.stripe.granularity_log2 = 5;  // 4 words per stripe — the paper's ratio
  TmUniverse<HtmSim> universe(ucfg);

  SimHybridTm::Config cfg;
  cfg.slow_retry_percent = 100;
  SimHybridTm tm(universe, cfg);
  SimHybridTm::ThreadCtx ctx(tm);

  // A contiguous TM array: transactions read a prefix of `len` words and
  // write every 16th of them (read-dominated, like the paper's tree ops).
  constexpr std::size_t kWords = 4096;
  std::vector<TVar<TmWord>> data(kWords);

  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("htm_budget_entries", std::to_string(kCapacity));
  rep.set_meta("note",
               "expectation: fast dies past the budget; the RH1 slow commit (metadata-only "
               "HTM) survives to ~4x that; larger still falls to RH2 / slow-slow");
  report::TableData& table = rep.add_table(
      "Ablation A3 - slow-path capacity headroom (HTM budget=" + std::to_string(kCapacity) +
          " entries, stripes of 4 words, sim)",
      report::TableStyle::kWide, "tx_words", "fast_pct");
  report::SeriesData& series = table.add_series("RH1-Mix100");

  for (const std::size_t len : {32ul, 96ul, 160ul, 320ul, 480ul, 640ul, 1280ul, 2560ul}) {
    const int kOps = std::max(4, static_cast<int>(opt.seconds * 4000));
    TxStats before = ctx.stats;
    for (int i = 0; i < kOps; ++i) {
      tm.atomically(ctx, [&](auto& tx) {
        TmWord sum = 0;
        for (std::size_t w = 0; w < len; ++w) {
          sum += data[w].read(tx);
          if (w % 16 == 0) data[w].write(tx, sum);
        }
        do_not_optimize(sum);
      });
    }
    std::array<std::uint64_t, static_cast<std::size_t>(ExecPath::kCount)> delta{};
    for (std::size_t p = 0; p < delta.size(); ++p) {
      delta[p] = ctx.stats.commits_by_path[p] - before.commits_by_path[p];
    }
    const double total = static_cast<double>(kOps);
    const auto pct = [&](ExecPath p) {
      return 100.0 * static_cast<double>(delta[static_cast<std::size_t>(p)]) / total;
    };
    report::Point& point = series.add_point(static_cast<double>(len));
    point.set("fast_pct", pct(ExecPath::kRh1Fast));
    point.set("rh1_slow_pct", pct(ExecPath::kRh1Slow));
    point.set("rh2_pct", pct(ExecPath::kRh2Slow));
    point.set("slow_slow_pct", pct(ExecPath::kRh2SlowSlow));
  }
  return rep;
}

}  // namespace rhtm::bench
