// Transactional service front-end scenario — the account-store KV service
// driven OPEN-LOOP (workloads/open_loop.h): Poisson arrivals at an offered
// rate, bounded per-worker admission queues with drop accounting, and
// per-request arrival->commit latency percentiles per protocol. Three
// tables:
//
//  1. Rate sweep at a fixed thread count — offered vs achieved rate, drop
//     rate, p50/p99/p999 as the offered load climbs toward saturation.
//  2. Thread sweep at a fixed offered rate — how many workers a protocol
//     needs to hold the tail at that load.
//  3. Audit-mix sweep (x = % of requests running a shard audit, batch K=4)
//     — long read-only audits riding the same queue as transfers: the
//     instrumented-fast-path cost question, asked at the tail.
//
// TL2 runs first at every point; it is both the TL2 series and the abort
// calibration for the hardware-mode series' injection, the repo's standard
// methodology (§3.1). The primary metric is achieved_per_sec (gateable,
// higher-is-better); the latency percentiles ride along on every point.

#include <algorithm>

#include "registry.h"
#include "workloads/account_store.h"
#include "workloads/open_loop.h"

namespace rhtm::bench {
namespace {

constexpr unsigned kMaxBatch = 64;

/// One service transaction over `k` admitted requests: each request is a
/// transfer or (audit_percent% of the time) a shard audit. Request
/// descriptors are drawn BEFORE the transaction, so an abort-retry replays
/// the same requests instead of re-rolling the mix.
auto service_op(const AccountStore& store, unsigned audit_percent) {
  return [&store, audit_percent](auto& tm, auto& ctx, Xoshiro256& rng, unsigned /*tid*/,
                                 unsigned k) {
    struct Req {
      bool audit;
      std::uint64_t a;
      std::uint64_t b;
      TmWord amount;
    };
    Req reqs[kMaxBatch];
    if (k > kMaxBatch) k = kMaxBatch;
    const std::uint64_t n = store.accounts();
    for (unsigned i = 0; i < k; ++i) {
      reqs[i].audit = rng.percent_chance(audit_percent);
      reqs[i].a = rng.below(n);
      reqs[i].b = rng.below(n);
      reqs[i].amount = 1 + rng.below(8);
    }
    TmWord sink = 0;
    tm.atomically(ctx, [&](auto& tx) {
      sink = 0;
      for (unsigned i = 0; i < k; ++i) {
        if (reqs[i].audit) {
          sink += store.audit_shard(tx, static_cast<std::size_t>(reqs[i].a));
        } else {
          (void)store.transfer(tx, reqs[i].a, reqs[i].b, reqs[i].amount);
        }
      }
    });
    do_not_optimize(sink);
  };
}

void fill_open_point(report::Point& p, const OpenLoopResult& r) {
  p.set("offered_per_sec", r.offered_per_sec());
  p.set("achieved_per_sec", r.achieved_per_sec());
  p.set("drop_rate", r.drop_rate());
  p.set("offered", static_cast<double>(r.offered));
  p.set("dropped", static_cast<double>(r.dropped));
  p.set("completed", static_cast<double>(r.completed));
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  p.set("p50_us", us(r.latency.quantile(0.50)));
  p.set("p90_us", us(r.latency.quantile(0.90)));
  p.set("p99_us", us(r.latency.quantile(0.99)));
  p.set("p999_us", us(r.latency.quantile(0.999)));
  p.set("max_us", us(r.latency.max()));
  p.set("commits", static_cast<double>(r.stats.commits));
  p.set("aborts", static_cast<double>(r.stats.aborts));
  const double a = static_cast<double>(r.stats.aborts);
  const double c = static_cast<double>(r.stats.commits);
  p.set("abort_ratio", a + c > 0 ? a / (a + c) : 0.0);
}

template <class H>
void run_service(const Options& opt, report::BenchReport& rep) {
  const std::size_t accounts = opt.full ? 8192 : 1024;
  AccountStore store(accounts, /*initial=*/1000, /*shards=*/16);
  const UniverseConfig ucfg = universe_config(opt);

  const auto scale = opt.full ? 10.0 : 1.0;
  const unsigned fixed_threads = std::min(4u, max_threads(opt));
  const double fixed_rate = 20'000 * scale;

  // One open-loop measurement point: TL2 first (series + calibration), then
  // every other protocol with the calibrated injection. One row per series,
  // each run on its own universe.
  const auto add_point = [&](report::TableData& table, double x, double rate,
                             unsigned threads, unsigned audit_percent, unsigned batch) {
    OpenLoopOptions olo;
    olo.rate_per_sec = rate;
    olo.seconds = opt.seconds;
    olo.threads = threads;
    olo.batch = batch;
    olo.queue_capacity = 1024;
    olo.pin = opt.pin;
    auto op = service_op(store, audit_percent);
    const auto run = [&](Series s, std::uint32_t inject_bp) {
      TmUniverse<H> universe(ucfg);
      return with_series_tm(universe, s, inject_bp,
                            [&](auto& tm) { return run_open_loop(tm, olo, op); });
    };
    const OpenLoopResult tl2 = run(Series::kTl2, 0);
    const double a = static_cast<double>(tl2.stats.aborts);
    const double c = static_cast<double>(tl2.stats.commits);
    const std::uint32_t inject_bp =
        AbortInjector::from_ratio(a + c > 0 ? a / (a + c) : 0.0).rate_bp();
    std::size_t i = 0;
    for (const Series s : all_series()) {
      fill_open_point(table.series[i++].add_point(x), s == Series::kTl2 ? tl2 : run(s, inject_bp));
    }
  };

  {
    report::TableData& table = rep.add_table(
        "Account-store service, open-loop rate sweep at " +
            std::to_string(fixed_threads) + " threads (Poisson arrivals, 5% audit mix," +
            " x = offered req/s)",
        report::TableStyle::kSweep, "offered_rate", "achieved_per_sec");
    add_series(table, all_series());
    for (const double rate : {5'000 * scale, 20'000 * scale, 80'000 * scale}) {
      add_point(table, rate, rate, fixed_threads, /*audit_percent=*/5, /*batch=*/1);
    }
  }
  {
    report::TableData& table = rep.add_table(
        "Account-store service, thread sweep at " +
            std::to_string(static_cast<long long>(fixed_rate)) +
            " req/s offered (Poisson arrivals, 5% audit mix)",
        report::TableStyle::kSweep, "threads", "achieved_per_sec");
    add_series(table, all_series());
    for (const unsigned threads : opt.threads) {
      add_point(table, threads, fixed_rate, threads, /*audit_percent=*/5, /*batch=*/1);
    }
  }
  {
    report::TableData& table = rep.add_table(
        "Account-store service, audit-mix sweep at " +
            std::to_string(static_cast<long long>(fixed_rate)) + " req/s, " +
            std::to_string(fixed_threads) +
            " threads, batch K=4 (x = % of requests auditing a shard)",
        report::TableStyle::kSweep, "audit_percent", "achieved_per_sec");
    add_series(table, all_series());
    for (const unsigned audit : {0u, 5u, 20u}) {
      add_point(table, audit, fixed_rate, fixed_threads, audit, /*batch=*/4);
    }
  }
}

}  // namespace

RHTM_SCENARIO(service, "extension",
              "Open-loop account-store service: Poisson arrivals, bounded "
              "admission queues, arrival->commit p50/p99/p999 per protocol") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  rep.set_meta("workload", std::string("account_store/accounts=") +
                               (opt.full ? "8192" : "1024") + "/shards=16");
  rep.set_meta("arrivals", "poisson");
  rep.set_meta("queue_capacity", "1024");
  rep.set_meta("latency_unit", "us");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_service<H>(opt, rep); });
  return rep;
}

}  // namespace rhtm::bench
