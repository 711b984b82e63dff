// Ablation A6 — retry policy: the paper's fixed Mixed-N coin vs the adaptive
// contention manager (§2.3 leaves the mechanism open). Sweep the injected
// abort pressure and compare throughput plus wasted hardware attempts.
//
// Expected shape: at low pressure, adaptive ≈ Mixed-0 (plenty of hardware
// retries, none wasted); at high pressure, adaptive ≈ Mixed-100 (immediate
// fallback) while Mixed-10 burns ~10 hardware attempts per transaction.
//
// Mixed-0 is skipped at 100% injection: it never falls back, so it would
// retry in hardware forever — the degenerate case the fallback exists for.
// Its series simply has no point at inject_bp=10000.

#include "registry.h"

namespace rhtm::bench {
namespace {

constexpr unsigned kThreads = 4;

void run_policy(const Options& opt, report::SeriesData& series, std::uint32_t inject_bp,
                CmPolicy policy, unsigned slow_retry_percent) {
  UniverseConfig ucfg;
  ucfg.cm.policy = policy;
  TmUniverse<HtmSim> u(ucfg);
  std::vector<TVar<TmWord>> cells(256);
  typename HybridTm<HtmSim>::Config cfg;
  cfg.inject_abort_bp = inject_bp;
  cfg.slow_retry_percent = slow_retry_percent;
  HybridTm<HtmSim> tm(u, cfg);
  const ThroughputResult r = run_throughput(
      tm, kThreads, opt.seconds * 2, [&](auto& m, auto& ctx, Xoshiro256& rng, unsigned) {
        auto& cell = cells[rng.below(cells.size())];
        m.atomically(ctx, [&](auto& tx) { cell.write(tx, cell.read(tx) + 1); });
      }, opt.pin);
  const double tries =
      r.total_ops > 0
          ? static_cast<double>(
                r.stats.attempts_by_path[static_cast<std::size_t>(ExecPath::kRh1Fast)]) /
                static_cast<double>(r.total_ops)
          : 0.0;
  report::Point& p = series.add_point(inject_bp);
  p.set("total_ops", static_cast<double>(r.total_ops));
  p.set("abort_ratio", r.abort_ratio());
  p.set("fast_tries_per_op", tries);
}

}  // namespace

RHTM_SCENARIO(ablation_policy, "§2.3 (A6)",
              "Mixed-N retry coin vs adaptive contention manager vs abort pressure") {
  report::BenchReport rep;
  rep.substrate = SubstrateTraits<HtmSim>::kName;
  rep.set_meta("workload", "counter array/256");
  rep.set_meta("note", "mixed-0 has no point at inject_bp=10000: it would livelock");
  report::TableData& table = rep.add_table(
      "Ablation A6 - retry policy vs abort pressure (counter array, " +
          std::to_string(kThreads) + " threads, sim)",
      report::TableStyle::kWide, "inject_bp");

  report::SeriesData& mixed0 = table.add_series("mixed-0");
  report::SeriesData& mixed10 = table.add_series("mixed-10");
  report::SeriesData& mixed100 = table.add_series("mixed-100");
  report::SeriesData& adaptive = table.add_series("adaptive");

  for (const std::uint32_t inject_bp : {0u, 1000u, 5000u, 10000u}) {
    if (inject_bp < 10000) {
      run_policy(opt, mixed0, inject_bp, CmPolicy::kFixed, 0);
    }
    run_policy(opt, mixed10, inject_bp, CmPolicy::kFixed, 10);
    run_policy(opt, mixed100, inject_bp, CmPolicy::kFixed, 100);
    run_policy(opt, adaptive, inject_bp, CmPolicy::kAdaptive, 100);
  }
  return rep;
}

}  // namespace rhtm::bench
