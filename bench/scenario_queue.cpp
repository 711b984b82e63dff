// Dynamic-workload scenario — transactional MPMC producer/consumer queue,
// every protocol. Unlike the search structures, the queue's transactions
// are tiny (3 TVars) but inherently serializing: every enqueuer conflicts
// on the tail cursor, every dequeuer on the head cursor. Two tables:
//
//  1. Thread sweep at a 1:1 producer:consumer split (the first half of
//     the tids produce, the rest consume).
//  2. Producer-share sweep (25% / 50% / 75% producers) at the largest
//     requested thread count — the configurable-ratio axis: a 75% share
//     keeps the queue near full (enqueues degrade to committed no-ops), a
//     25% share keeps it near empty.

#include "registry.h"

namespace rhtm::bench {
namespace {

template <class H>
void run_queue(const Options& opt, report::BenchReport& rep, std::size_t capacity) {
  const UniverseConfig ucfg = universe_config(opt);
  // Every run (the TL2 calibration included) starts from a half-full queue:
  // the hook records the occupancy the run ended with as the point's
  // `queue_size_after`, then refills the queue to half for the next run.
  TxnQueue queue(capacity);
  queue.unsafe_reset(capacity / 2);
  const auto occupancy = [&](report::Point& p, const ThroughputResult&, auto&) {
    p.set("queue_size_after", static_cast<double>(queue.unsafe_size()));
    queue.unsafe_reset(capacity / 2);
  };
  const auto add_point = [&](report::TableData& table, double x, unsigned threads,
                             unsigned share) {
    add_calibrated_point<H>(table, 0, all_series(), ucfg, opt, x, threads,
                            queue_op(queue, threads, share), true, occupancy);
  };

  {
    report::TableData& table = rep.add_table(
        "MPMC transactional queue, capacity " + std::to_string(capacity) +
        ", 1:1 producers:consumers, all protocols (substrate=" +
        std::string(opt.substrate_name()) + ")");
    add_series(table, all_series());
    for (const unsigned threads : opt.threads) add_point(table, threads, threads, 50);
  }
  {
    const unsigned threads = max_threads(opt);
    report::TableData& table = rep.add_table(
        "MPMC queue producer share sweep at " + std::to_string(threads) +
        " threads (x = % of workers producing)",
        report::TableStyle::kSweep, "producer_percent");
    add_series(table, all_series());
    for (const unsigned share : {25u, 50u, 75u}) add_point(table, share, threads, share);
  }
}

}  // namespace

RHTM_SCENARIO(queue, "extension",
              "Transactional MPMC producer/consumer queue, every protocol, "
              "1:1 + producer-share sweeps") {
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  const std::size_t capacity = opt.full ? 65536 : 4096;
  rep.set_meta("workload", "txn_queue/capacity=" + std::to_string(capacity));
  rep.set_meta("producer_shares", "25,50,75");
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_queue<H>(opt, rep, capacity); });
  return rep;
}

}  // namespace rhtm::bench
