// Figure 2 (middle + bottom) — single-thread speedup (normalised to TL2) and
// single-thread performance breakdown for the 100K-node constant RB-tree at
// 20% and 80% mutations.
//
// Breakdown semantics follow the paper's table: "Read/Write Time" is time in
// the read/write *barrier* — a path with no barrier (HTM reads and writes,
// RH1-fast reads) reports zero by construction and its memory accesses count
// as Private time. Commit time includes transaction begin/commit machinery;
// InterTX is everything between transactions (key selection, RNG, loop).

#include <vector>

#include "registry.h"
#include "workloads/constant_rbtree.h"

namespace rhtm::bench {
namespace {

struct Row {
  const char* name;
  BreakdownResult breakdown;
  double plain_ops_per_sec = 0;  ///< untimed run — rdtsc wrapping inflates
                                 ///< barrier paths, so speedups use this
};

/// One series' row: the breakdown of the RB-tree workload with the series'
/// read/write timing flags, then its untimed single-thread throughput.
template <bool kTimeReads, bool kTimeWrites, class Tm>
Row measure_row(const char* name, Tm& tm, double secs, const ConstantRbTree& tree,
                unsigned write_percent) {
  const auto op = lookup_update_op(tree, write_percent);
  const BreakdownResult breakdown = run_breakdown<kTimeReads, kTimeWrites>(tm, secs, op);
  const ThroughputResult plain = run_throughput(tm, 1, secs, op);
  return {name, breakdown,
          plain.seconds > 0 ? static_cast<double>(plain.total_ops) / plain.seconds : 0.0};
}

template <class H>
void run_breakdowns(const Options& opt, report::BenchReport& rep, const ConstantRbTree& tree,
                    unsigned write_percent) {
  TmUniverse<H> universe(universe_config(opt));
  const double secs = opt.seconds * 2;  // single point per series; can afford more

  std::vector<Row> rows;
  {  // RH1 Slow — the mixed slow-path only (software body, HTM commit)
    typename HybridTm<H>::Config cfg;
    cfg.force_slow_path = true;
    HybridTm<H> tm(universe, cfg);
    rows.push_back(measure_row<true, true>("RH1-Slow", tm, secs, tree, write_percent));
  }
  {  // TL2
    Tl2<H> tm(universe);
    rows.push_back(measure_row<true, true>("TL2", tm, secs, tree, write_percent));
  }
  {  // Standard HyTM (hardware only) — barriers on reads and writes
    typename StandardHytm<H>::Config cfg;
    cfg.hardware_only = true;
    StandardHytm<H> tm(universe, cfg);
    rows.push_back(measure_row<true, true>("StandardHyTM", tm, secs, tree, write_percent));
  }
  {  // RH1 Fast — write barrier only (version store); reads uninstrumented
    typename HybridTm<H>::Config cfg;
    cfg.slow_retry_percent = 0;
    HybridTm<H> tm(universe, cfg);
    rows.push_back(measure_row<false, true>("RH1-Fast", tm, secs, tree, write_percent));
  }
  {  // HTM — no barriers at all
    HtmOnly<H> tm(universe);
    rows.push_back(measure_row<false, false>("HTM", tm, secs, tree, write_percent));
  }

  const double tl2_ops = rows[1].plain_ops_per_sec;

  report::TableData& table = rep.add_table(
      "Figure 2 - single-thread breakdown, RB-Tree " + std::to_string(write_percent) +
          "% mutations (substrate=" + opt.substrate_name() + ")",
      report::TableStyle::kWide, "write_percent", "speedup_vs_tl2");
  for (const Row& row : rows) {
    const BreakdownResult& b = row.breakdown;
    report::Point& p = table.add_series(row.name).add_point(write_percent);
    p.set("read_pct", b.read_pct);
    p.set("write_pct", b.write_pct);
    p.set("commit_pct", b.commit_pct);
    p.set("private_pct", b.private_pct);
    p.set("intertx_pct", b.intertx_pct);
    p.set("reads", static_cast<double>(b.reads));
    p.set("writes", static_cast<double>(b.writes));
    p.set("aborts", static_cast<double>(b.stats.aborts));
    p.set("commits", static_cast<double>(b.stats.commits));
    p.set("speedup_vs_tl2", tl2_ops > 0 ? row.plain_ops_per_sec / tl2_ops : 0.0);
  }
}

template <class H>
void run_fig2_breakdown(const Options& opt, report::BenchReport& rep) {
  ConstantRbTree tree(100'000);
  run_breakdowns<H>(opt, rep, tree, 20);
  run_breakdowns<H>(opt, rep, tree, 80);
}

}  // namespace

RHTM_SCENARIO(fig2_breakdown, "Fig. 2 (mid+bot)",
              "Single-thread speedup vs TL2 + read/write/commit/private/intertx breakdown") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", "constant_rbtree/100000");
  rep.set_meta("write_percents", "20,80");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_fig2_breakdown<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
