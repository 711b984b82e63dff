// The five ablations, each isolating one design choice of the paper on the
// simulated substrate:
//
//  * A1 ablation_clock (§2.2) — global-version-clock policy. GV6 never
//    writes the clock on GVNext(): fast-path hardware transactions that
//    speculate on the clock stay quiet. GV1 fetch-adds it on every commit,
//    so every overlapping pair of hardware transactions conflicts on the
//    clock line; GV4 CASes once per racing batch. The same RH1-Mixed
//    workload under all three policies: throughput and the abort breakdown.
//  * A2 ablation_stripes (§2) — stripe-table geometry: fewer stripes and
//    coarser granules alias more addresses onto the same version word,
//    producing false conflicts for the software paths. TL2 over a
//    write-heavy random array.
//  * A3 ablation_capacity (§1.2) — the slow-path headroom claim: the RH1
//    slow-path commit transaction touches *metadata only* (one stripe word
//    per ~4 data words at 32-byte stripes), so transactions ~4× larger than
//    the hardware budget can still commit with a hardware-assisted commit;
//    beyond that, RH2 and the slow-slow path take over. Sweeps the
//    transaction footprint on a fixed capacity and reports which path
//    committed.
//  * A4 ablation_readmask (§4.1) — RH2 visible-read publication: the paper
//    argues for fetch-and-add over a CAS loop. Forced-RH2 commits over a
//    shared array, both mask RMW flavours.
//  * A6 ablation_policy (§2.3) — retry policy: the paper's fixed Mixed-N
//    coin vs the adaptive contention manager, over the injected abort
//    pressure. At low pressure adaptive ≈ Mixed-0 (plenty of hardware
//    retries, none wasted); at high pressure adaptive ≈ Mixed-100
//    (immediate fallback) while Mixed-10 burns ~10 hardware attempts per
//    transaction. Mixed-0 is skipped at 100% injection: it never falls
//    back, so it would retry in hardware forever — the degenerate case the
//    fallback exists for.

#include <algorithm>

#include "registry.h"
#include "workloads/random_array.h"

namespace rhtm::bench {
namespace {

constexpr unsigned kThreads = 4;

/// `opt` with every measurement `factor` times longer.
[[nodiscard]] Options longer(const Options& opt, double factor) {
  Options run = opt;
  run.seconds = opt.seconds * factor;
  return run;
}

/// One random-array transaction of `len` accesses, `write_percent` writes.
auto array_op(const RandomArray& array, unsigned len, unsigned write_percent) {
  return [&array, len, write_percent](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
    m.atomically(ctx, [&](auto& tx) { do_not_optimize(array.op(tx, rng, len, write_percent)); });
  };
}

[[nodiscard]] double aborts_of(const ThroughputResult& r, AbortCause cause) {
  return static_cast<double>(r.stats.aborts_by_cause[static_cast<std::size_t>(cause)]);
}

}  // namespace

RHTM_SCENARIO(ablation_clock, "§2.2 (A1)",
              "GV1 / GV4 / GV6 clock policies: throughput + abort breakdown") {
  RandomArray array(64 * 1024);
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/65536 len=64 write=20%");
  report::TableData& table = rep.add_table(
      "Ablation A1 - clock policy (RH1 Mixed 100, random array, " +
          std::to_string(kThreads) + " threads, sim)",
      report::TableStyle::kWide);
  for (const GvMode mode : {GvMode::kGv1, GvMode::kGv4, GvMode::kGv6}) {
    UniverseConfig ucfg;
    ucfg.gv_mode = mode;
    report::Point& p = table.add_series(to_string(mode)).add_point(kThreads);
    // 5% injected aborts: a trickle of slow-path traffic.
    const ThroughputResult r = run_point<HtmSim>(p, ucfg, longer(opt, 4), Series::kRh1Mix100,
                                                 kThreads, 500, array_op(array, 64, 20));
    p.set("htm_conflicts", aborts_of(r, AbortCause::kHtmConflict));
    p.set("stm_validation", aborts_of(r, AbortCause::kStmValidation));
  }
  return rep;
}

RHTM_SCENARIO(ablation_stripes, "§2 (A2)",
              "Stripe-table geometry: false conflicts from address aliasing") {
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/65536 len=32 write=50%");
  report::TableData& table = rep.add_table(
      "Ablation A2 - stripe geometry (TL2, random array 64K, " + std::to_string(kThreads) +
          " threads, sim)",
      report::TableStyle::kWide, "granularity_log2");
  for (const unsigned log2_count : {10u, 14u, 18u}) {
    report::SeriesData& series = table.add_series("stripes=2^" + std::to_string(log2_count));
    for (const unsigned gran : {3u, 5u, 8u}) {
      UniverseConfig ucfg;
      ucfg.stripe.log2_count = log2_count;
      ucfg.stripe.granularity_log2 = gran;
      RandomArray array(64 * 1024);
      run_point<HtmSim>(series.add_point(gran), ucfg, longer(opt, 2), Series::kTl2, kThreads, 0,
                        array_op(array, 32, 50));
    }
  }
  return rep;
}

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
  std::vector<TVar<TmWord>> data(4096);

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

  const int ops = std::max(4, static_cast<int>(opt.seconds * 4000));
  for (const std::size_t len : {32ul, 96ul, 160ul, 320ul, 480ul, 640ul, 1280ul, 2560ul}) {
    const TxStats d =
        run_capacity_pressure(tm, ctx, ops, [&](auto& m, auto& c, Xoshiro256&, unsigned) {
          m.atomically(c, [&](auto& tx) {
            TmWord sum = 0;
            for (std::size_t w = 0; w < len; ++w) {
              sum += data[w].read(tx);
              if (w % 16 == 0) data[w].write(tx, sum);
            }
            do_not_optimize(sum);
          });
        });
    const auto pct = [&](ExecPath p) {
      return 100.0 * static_cast<double>(d.commits_by_path[static_cast<std::size_t>(p)]) / ops;
    };
    report::Point& point = series.add_point(static_cast<double>(len));
    point.set("fast_pct", pct(ExecPath::kRh1Fast));
    point.set("rh1_slow_pct", pct(ExecPath::kRh1Slow));
    point.set("rh2_pct", pct(ExecPath::kRh2Slow));
    point.set("slow_slow_pct", pct(ExecPath::kRh2SlowSlow));
  }
  return rep;
}

RHTM_SCENARIO(ablation_readmask, "§4.1 (A4)",
              "RH2 visible-read publication: fetch-add vs CAS loop") {
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "random_array/16384 len=32 write=25%, forced RH2");
  report::TableData& table =
      rep.add_table("Ablation A4 - RH2 read-mask publication: fetch-add vs CAS loop (sim)");
  for (const MaskRmw mode : {MaskRmw::kFetchAdd, MaskRmw::kCasLoop}) {
    report::SeriesData& series = table.add_series(to_string(mode));
    for (const unsigned threads : {1u, 4u, 8u}) {
      UniverseConfig ucfg;
      ucfg.stripe.mask_rmw = mode;
      TmUniverse<HtmSim> universe(ucfg);
      RandomArray array(16 * 1024);
      // No series runs forced RH2, so this one builds its protocol itself.
      SimHybridTm::Config cfg;
      cfg.force_rh2 = true;
      cfg.inject_abort_bp = 10000;  // every op through the RH2 slow commit
      SimHybridTm tm(universe, cfg);
      fill_point(series.add_point(threads),
                 run_throughput(tm, threads, opt.seconds * 2, array_op(array, 32, 25), opt.pin));
    }
  }
  return rep;
}

RHTM_SCENARIO(ablation_policy, "§2.3 (A6)",
              "Mixed-N retry coin vs adaptive contention manager vs abort pressure") {
  struct Row {
    const char* name;
    Series series;  ///< the Mixed-N coin: RH1-Fast is Mixed-0
    CmPolicy policy;
  };
  const Row rows[] = {{"mixed-0", Series::kRh1Fast, CmPolicy::kFixed},
                      {"mixed-10", Series::kRh1Mix10, CmPolicy::kFixed},
                      {"mixed-100", Series::kRh1Mix100, CmPolicy::kFixed},
                      {"adaptive", Series::kRh1Mix100, CmPolicy::kAdaptive}};

  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "counter array/256");
  rep.set_meta("note", "mixed-0 has no point at inject_bp=10000: it would livelock");
  report::TableData& table = rep.add_table(
      "Ablation A6 - retry policy vs abort pressure (counter array, " +
          std::to_string(kThreads) + " threads, sim)",
      report::TableStyle::kWide, "inject_bp");
  for (const Row& row : rows) table.add_series(row.name);

  for (const std::uint32_t inject_bp : {0u, 1000u, 5000u, 10000u}) {
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      if (rows[i].series == Series::kRh1Fast && inject_bp == 10000) continue;
      UniverseConfig ucfg;
      ucfg.cm.policy = rows[i].policy;
      std::vector<TVar<TmWord>> cells(256);
      const auto op = [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
        auto& cell = cells[rng.below(cells.size())];
        m.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
      };
      report::Point& p = table.series[i].add_point(inject_bp);
      const ThroughputResult r =
          run_point<HtmSim>(p, ucfg, longer(opt, 2), rows[i].series, kThreads, inject_bp, op);
      const auto fast_tries =
          r.stats.attempts_by_path[static_cast<std::size_t>(ExecPath::kRh1Fast)];
      p.set("fast_tries_per_op", r.total_ops > 0 ? static_cast<double>(fast_tries) /
                                                       static_cast<double>(r.total_ops)
                                                 : 0.0);
    }
  }
  return rep;
}

}  // namespace rhtm::bench
