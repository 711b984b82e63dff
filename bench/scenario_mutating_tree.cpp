// Dynamic-workload scenario — a red-black tree whose inserts and deletes
// really rebalance (rotations and recoloring inside the transactions), run
// through EVERY protocol. Two tables:
//
//  1. The mutating tree itself, all eight series: transaction footprints
//     vary with where each rebalance terminates, so the capacity
//     escalation chain is exercised by the workload, not by knobs.
//  2. The headline constant-vs-mutating comparison at the paper's Fig. 1
//     series set: the same key-space, the same live size, the same mix —
//     one structure never changes shape, the other restructures. The
//     `mut_over_const` metric on each mutating point quantifies exactly
//     what the paper's constant-shape methodology hides.

#include <memory>

#include "registry.h"
#include "workloads/constant_rbtree.h"
#include "workloads/mutating_rbtree.h"

namespace rhtm::bench {
namespace {

/// Builds a mutating tree over the key domain [0, domain) at the
/// half-occupancy steady state.
std::unique_ptr<MutatingRbTree> make_populated_tree(std::size_t domain) {
  auto tree = std::make_unique<MutatingRbTree>(domain);
  populate_even_keys(*tree);
  return tree;
}

/// The mutating mix: of `write_percent` mutating ops, half insert and half
/// erase a uniform key, so the live size stays near domain/2 while the
/// shape churns.
auto mutating_op(MutatingRbTree& tree, std::size_t domain, unsigned write_percent) {
  return [&tree, domain, write_percent](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
    const std::uint64_t key = rng.below(domain);
    if (rng.percent_chance(write_percent)) {
      if (rng.percent_chance(50)) {
        tm.atomically(ctx, [&](auto& tx) { (void)tree.insert(tx, key, rng.next_u64()); });
      } else {
        tm.atomically(ctx, [&](auto& tx) { (void)tree.erase(tx, key); });
      }
    } else {
      TmWord sink = 0;
      tm.atomically(ctx, [&](auto& tx) { (void)tree.lookup(tx, key, &sink); });
      do_not_optimize(sink);
    }
  };
}

template <class H>
void run_mutating_tree(const Options& opt, report::BenchReport& rep, std::size_t domain) {
  constexpr unsigned kWritePercent = 20;

  {
    auto tree = make_populated_tree(domain);
    report::TableData& table = rep.add_table(
        std::to_string(domain / 2) + "-node Mutating RB-Tree (domain " +
        std::to_string(domain) + "), 20% structural mutations, all protocols (substrate=" +
        std::string(opt.substrate_name()) + ")");
    run_figure<H>(universe_config(opt), table, all_series(), opt,
                  mutating_op(*tree, domain, kWritePercent));
  }

  // Headline comparison: constant vs mutating at the Fig. 1 series set,
  // matched key-space and live size. ConstantRbTree(n) holds the odd keys
  // of [0, 2n) and draws keys from that domain, so n = domain/2 gives both
  // structures ~domain/2 live nodes, ~50% hit rate, the same mix.
  const std::vector<Series> fig1_series = {Series::kHtm, Series::kStdHytm, Series::kTl2,
                                           Series::kRh1Fast};
  report::TableData& cmp = rep.add_table(
      "Constant vs mutating RB-tree, " + std::to_string(domain / 2) + " live nodes, 20% "
      "mutations (-const overwrites in place, -mut rebalances; mut_over_const on -mut rows)");
  {
    ConstantRbTree constant(domain / 2);
    run_figure<H>(universe_config(opt), cmp, fig1_series, opt,
                  lookup_update_op(constant, kWritePercent), true, "-const");
  }
  {
    auto tree = make_populated_tree(domain);
    run_figure<H>(universe_config(opt), cmp, fig1_series, opt,
                  mutating_op(*tree, domain, kWritePercent), true, "-mut");
  }
  // Quantify the gap: mutating / constant throughput per (series, x).
  for (const Series s : fig1_series) {
    const report::SeriesData* cs = cmp.find_series(std::string(to_string(s)) + "-const");
    for (report::SeriesData& series : cmp.series) {
      if (series.name != std::string(to_string(s)) + "-mut") continue;
      for (report::Point& p : series.points) {
        if (cs == nullptr) continue;
        for (const report::Point& cp : cs->points) {
          const double* cv = cp.find("total_ops");
          const double* mv = p.find("total_ops");
          if (cp.x == p.x && cv != nullptr && mv != nullptr && *cv > 0) {
            p.set("mut_over_const", *mv / *cv);
          }
        }
      }
    }
  }
}

}  // namespace

RHTM_SCENARIO(mutating_tree, "extension",
              "Mutating RB-tree (real rotations in-transaction), every protocol + "
              "constant-vs-mutating headline comparison") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  const std::size_t domain = opt.full ? 131072 : 16384;
  rep.set_meta("workload", "mutating_rbtree/domain=" + std::to_string(domain));
  rep.set_meta("write_percent", "20");
  rep.set_meta("comparison", "constant_rbtree/" + std::to_string(domain / 2));
  dispatch_substrate(opt,
                     [&]<class H>(SubstrateTag<H>) { run_mutating_tree<H>(opt, rep, domain); });
  return rep;
}

}  // namespace rhtm::bench
