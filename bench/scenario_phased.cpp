// Dynamic-workload scenario — a phased execution over the mutating RB-tree:
// the operation mix and transaction size switch on a timed cadence WITHIN
// one run (read-mostly -> write-burst -> long-transaction snapshot), with
// per-phase rows in the report. This is the shape that stresses protocols
// which tune themselves to the recent workload (HybridTm's retry policy,
// PhasedTm's global mode) and whose snapshot phase pushes read sets past
// the hardware budget — the capacity escalation chain shows up in the
// per-phase commits_* metrics, driven by the workload itself.
//
// Injection note: hardware-mode series replay ONE abort ratio calibrated
// from a TL2 run of the whole schedule (a per-phase injection would need a
// phase-aware injector; the per-phase TL2 rows report what each phase's
// genuine software contention was).

#include <memory>

#include "registry.h"
#include "workloads/mutating_rbtree.h"
#include "workloads/phase_schedule.h"

namespace rhtm::bench {
namespace {

template <class H>
void run_phased_scenario(const Options& opt, report::BenchReport& rep, std::size_t domain,
                         std::size_t snapshot_nodes) {
  const PhaseSchedule schedule({
      {"read_mostly", 0.4, 5, 0, 0},
      {"write_burst", 0.3, 80, 0, 0},
      {"snapshot", 0.3, 5, 30, snapshot_nodes},
  });
  const unsigned threads = max_threads(opt);
  const double total_seconds = opt.seconds * static_cast<double>(schedule.size());

  auto tree = std::make_unique<MutatingRbTree>(domain);
  populate_even_keys(*tree);

  auto op = [&](auto& tm, auto& ctx, Xoshiro256& rng, unsigned, std::size_t,
                const Phase& phase) {
    if (phase.long_op_percent != 0 && rng.percent_chance(phase.long_op_percent)) {
      std::uint64_t checksum = 0;
      tm.atomically(ctx, [&](auto& tx) {
        checksum = 0;
        (void)tree->scan_inorder(tx, phase.long_op_scale, &checksum);
      });
      do_not_optimize(checksum);
      return;
    }
    const std::uint64_t key = rng.below(domain);
    if (rng.percent_chance(phase.write_percent)) {
      if (rng.percent_chance(50)) {
        tm.atomically(ctx, [&](auto& tx) { (void)tree->insert(tx, key, rng.next_u64()); });
      } else {
        tm.atomically(ctx, [&](auto& tx) { (void)tree->erase(tx, key); });
      }
    } else {
      TmWord sink = 0;
      tm.atomically(ctx, [&](auto& tx) { (void)tree->lookup(tx, key, &sink); });
      do_not_optimize(sink);
    }
  };

  // One series run over the whole schedule, on its own universe.
  const auto run = [&](Series s, std::uint32_t inject_bp) {
    TmUniverse<H> universe(universe_config(opt));
    return with_series_tm(universe, s, inject_bp, [&](auto& tm) {
      return run_phased(tm, threads, total_seconds, schedule, op, opt.pin);
    });
  };

  // Whole-schedule TL2 calibration run (it is also the TL2 series' data).
  const PhasedResult tl2_result = run(Series::kTl2, 0);
  const std::uint32_t inject_bp =
      AbortInjector::from_ratio(tl2_result.total().abort_ratio()).rate_bp();

  // Primary metrics mirror total_ops under scenario-specific names, which
  // keeps BOTH tables out of the CI regression gate (it only gates
  // total_ops/ops_per_sec tables): a phased run's series totals depend on
  // how many ms-scale snapshot transactions each phase window happened to
  // fit, so the gate's ratios-cancel-runner-noise assumption does not hold
  // at smoke timescales (observed >3x run-to-run ratio swings). The phased
  // reports still land in the trajectory artifact for --full diffing.
  report::TableData& per_phase = rep.add_table(
      "Phased run (read_mostly -> write_burst -> snapshot) at " + std::to_string(threads) +
      " threads, per-phase rows (substrate=" + std::string(opt.substrate_name()) + ")",
      report::TableStyle::kSweep, "phase", "phase_total_ops");
  report::TableData& totals = rep.add_table(
      "Phased run, whole-schedule totals (same runs as the per-phase table)",
      report::TableStyle::kSweep, "threads", "schedule_total_ops");

  for (const Series s : all_series()) {
    const PhasedResult result = s == Series::kTl2 ? tl2_result : run(s, inject_bp);
    report::SeriesData& phase_rows = per_phase.add_series(to_string(s));
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      report::Point& p = phase_rows.add_point(static_cast<double>(i));
      fill_point(p, result.per_phase[i]);
      p.set("phase_total_ops", static_cast<double>(result.per_phase[i].total_ops));
      p.set("write_percent", schedule.phase(i).write_percent);
      p.set("long_op_percent", schedule.phase(i).long_op_percent);
      p.set("phase_seconds", result.per_phase[i].seconds);
    }
    report::Point& total_point = totals.add_series(to_string(s)).add_point(threads);
    const ThroughputResult whole = result.total();
    fill_point(total_point, whole);
    total_point.set("schedule_total_ops", static_cast<double>(whole.total_ops));
  }

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    rep.set_meta("phase" + std::to_string(i),
                 std::string(schedule.phase(i).name) +
                     "/write=" + std::to_string(schedule.phase(i).write_percent) +
                     "/long_op=" + std::to_string(schedule.phase(i).long_op_percent) + "%x" +
                     std::to_string(schedule.phase(i).long_op_scale));
  }
}

}  // namespace

RHTM_SCENARIO(phased, "extension",
              "Phased mix switch within one run (read-mostly/write-burst/snapshot), "
              "per-phase rows, every protocol") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  const std::size_t domain = opt.full ? 32768 : 8192;
  // The snapshot phase's long transaction: an in-order scan of the whole
  // live tree (~domain/2 nodes, ~4 TVar reads per node), which overflows
  // the default 8192-line hardware budget — so the capacity escalation
  // chain (fast -> RH1-slow, HtmOnly/StdHyTM's lock fallback) is driven by
  // the workload itself, phase 2's commits_* rows show it per protocol.
  const std::size_t snapshot_nodes = opt.full ? 16384 : 4096;
  rep.set_meta("workload", "mutating_rbtree/domain=" + std::to_string(domain));
  rep.set_meta("snapshot_nodes", std::to_string(snapshot_nodes));
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) {
    run_phased_scenario<H>(opt, rep, domain, snapshot_nodes);
  });
  return rep;
}

}  // namespace rhtm::bench
