// Extension bench — the paper's §1 argument, measured: RH1 against the two
// alternative hybrid designs it was proposed to replace.
//
//  * Phased TM: great while everything fits in hardware, collapses to STM
//    for everyone when even one transaction needs software.
//  * Hybrid NOrec: tiny instrumentation, but writer commits serialise on the
//    global sequence lock and abort every concurrent hardware transaction.
//  * RH1 Mixed: per-transaction software fallback, fine-grained conflicts.
//
// Two scenarios on the constant RB-tree: (a) everything fits (no injection)
// — all hybrids should be close to raw HTM; (b) a fraction of transactions
// genuinely exceeds the HTM write budget (simulated substrate, real capacity
// aborts) — Phased TM and Hybrid NOrec degrade, RH1 keeps the gap small.

#include "registry.h"
#include "workloads/constant_rbtree.h"

namespace rhtm::bench {
namespace {

template <class H>
void run_no_pressure(const Options& opt, report::BenchReport& rep) {
  ConstantRbTree tree(100'000);
  report::TableData& table = rep.add_table(
      "ext-hybrids - RB-tree 100K, 20% writes, no software pressure (substrate=" +
      std::string(opt.substrate_name()) + ")");

  // Scenario (a) is "everything fits": zero injection for the hardware
  // series — all hybrids should land close to raw HTM.
  run_figure<H>(universe_config(opt), table,
                {Series::kRh1Mix100, Series::kHybridNorec, Series::kPhasedTm, Series::kStdHytm,
                 Series::kTl2},
                opt, lookup_update_op(tree, 20), /*inject=*/false);
}

// Scenario (b): a small fraction of transactions genuinely exceeds the HTM
// write budget, so hardware can never commit them — the "even a single
// transaction needs software" case (§1 on Phased TM). Always runs on HtmSim:
// real capacity aborts, no injection.
void run_capacity_pressure_table(const Options& opt, report::BenchReport& rep) {
  using H = HtmSim;
  constexpr std::size_t kCells = 2048;
  constexpr unsigned kBulkWrites = 700;  // > default 512-entry write budget
  constexpr unsigned kBulkPercent = 2;

  report::TableData& table = rep.add_table(
      std::string("ext-hybrids - 2% oversized transactions (genuine capacity aborts, "
                  "substrate=") +
      SubstrateTraits<H>::kName + ")");
  const std::vector<Series> series = {Series::kRh1Mix100, Series::kHybridNorec,
                                     Series::kPhasedTm, Series::kTl2};
  add_series(table, series);

  const auto make_op = [&](std::vector<TVar<TmWord>>& cells) {
    return [&cells, kBulkWrites, kBulkPercent, kCells](auto& m, auto& ctx, Xoshiro256& rng,
                                                       unsigned) {
      if (rng.percent_chance(kBulkPercent)) {
        m.atomically(ctx, [&](auto& tx) {
          for (unsigned i = 0; i < kBulkWrites; ++i) cells[i].write(tx, i);
        });
      } else {
        const std::size_t base = rng.below(kCells - 8);
        m.atomically(ctx, [&](auto& tx) {
          TmWord sum = 0;
          for (std::size_t i = 0; i < 8; ++i) sum += cells[base + i].read(tx);
          cells[base].write(tx, sum);
        });
      }
    };
  };

  for (const unsigned threads : opt.threads) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      std::vector<TVar<TmWord>> cells(kCells);  // fresh cells per point
      run_point<H>(table.series[i].add_point(threads), universe_config(opt), opt, series[i],
                   threads, 0, make_op(cells));
    }
  }
}

}  // namespace

RHTM_SCENARIO(ext_hybrids, "§1 (ext)",
              "RH1-Mix100 vs Hybrid NOrec vs Phased TM, incl. genuine capacity-abort case") {
  report::BenchReport rep;
  // Table (a) follows --substrate; table (b) is pinned to the simulator, so
  // the report-level stamp derives from the shared naming: the simulator's
  // own name when the substrates coincide, the mixed marker otherwise.
  rep.substrate = opt.substrate == SubstrateTraits<HtmSim>::kKind
                      ? SubstrateTraits<HtmSim>::kName
                      : kMixedSubstrateName;
  rep.set_meta("workload", "constant_rbtree/100000 + oversized-tx counter array");
  rep.set_meta("note",
               "capacity table: NOrec's abort ratio spikes (global seqlock), PhasedTM pins "
               "to TL2 (one oversized tx drags all threads to software), RH1 pays only "
               "per-transaction fallback costs");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_no_pressure<H>(opt, rep); });
  run_capacity_pressure_table(opt, rep);
  return rep;
}

}  // namespace rhtm::bench
