// Durability scenario — the persistence-mode universe (core/pmem.h) under
// throughput load. Every series runs with UniverseConfig::durable set, so
// each committed writer pays the full log-then-fence-then-apply pipeline:
// one pwb per logged element plus the record header, two pfences around the
// commit marker, one psync draining the image apply. Three tables:
//
//  1. Durable KV transfer throughput vs threads (AccountStore transfers —
//     2 reads + 2 writes per committed transfer).
//  2. The same runs re-keyed on fences_per_commit — the gate-visible
//     persistence-cost axis (lower is better: scripts/check_regression.py
//     flags a *rising* RH1-Fast/TL2 fence ratio). The fence arithmetic is
//     path-independent by design (tests/durable_mode_test.cpp pins
//     pwb = 2n+2, pfence = 2, psync = 1 per n-entry durable commit), so
//     this ratio should sit at ~1.0: RH1's reduced hardware commit buys its
//     throughput without extra persistence traffic.
//  3. Durable MPMC queue throughput vs threads (enqueue/dequeue — 2-entry
//     durable commits on an inherently serializing hot spot).
//
// Substrate note: durability needs real commit atomicity — the durable
// hardware commits stamp stripes locked inside the transaction, which
// HtmEmul's no-rollback emulation cannot undo on abort (the same exclusion
// capacity_paths_test documents for its emul leg). A requested emul run is
// therefore remapped to sim, visibly: rep.substrate and the
// "emul_remapped_to" meta record the substitution.

#include "registry.h"
#include "workloads/account_store.h"

namespace rhtm::bench {
namespace {

constexpr std::size_t kAccounts = 1024;
constexpr TmWord kInitialBalance = 1 << 16;  ///< deep enough that transfers rarely no-op

/// The durable protocol set: every series that can capture a redo log.
/// HtmOnly is excluded by design (zero instrumentation, nowhere to capture —
/// core/htm_only.h) and PhasedTm/StandardHytm route durable work to their
/// software paths anyway, so the interesting matrix is the two baselines
/// against the RH1 flavours.
const std::vector<Series> kDurableSeries = {Series::kTl2, Series::kRh1Fast,
                                            Series::kRh1Mix100, Series::kHybridNorec};

/// The run's universe (its --numa geometry and --trace tracer) with
/// durability on.
[[nodiscard]] UniverseConfig durable_universe_config(const Options& opt) {
  UniverseConfig ucfg = universe_config(opt);
  ucfg.durable = true;
  // One redo log per run (each point constructs a fresh universe): big
  // enough that a smoke/default run never fills it. A --full run can —
  // overflow is sticky and graceful (appends stop, the run continues), and
  // every point reports it as the log_overflowed metric so a clipped fence
  // count is never mistaken for a cheap protocol.
  ucfg.pmem.log_words = opt.full ? (std::size_t{1} << 24) : (std::size_t{1} << 23);
  return ucfg;
}

/// The point hook: the persistence cost of the run, from the point's own
/// fresh PersistentDomain (no cross-run delta math).
constexpr auto kFenceMetrics = [](report::Point& p, const ThroughputResult& r, auto& universe) {
  const FenceCounts fences = universe.pmem().fence_counts();
  p.set("fences_per_commit", per_commit(r, fences.total()));
  p.set("pwb_per_commit", per_commit(r, fences.pwb));
  p.set("pfence_per_commit", per_commit(r, fences.pfence));
  p.set("psync_per_commit", per_commit(r, fences.psync));
  p.set("log_overflowed", universe.pmem().log_overflowed() ? 1.0 : 0.0);
};

auto transfer_op(const AccountStore& store) {
  return [&store](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
    const std::uint64_t from = rng.next_u64() % store.accounts();
    const std::uint64_t to = rng.next_u64() % store.accounts();
    const TmWord amount = 1 + rng.next_u64() % 8;
    tm.atomically(ctx, [&](auto& tx) { (void)store.transfer(tx, from, to, amount); });
  };
}

template <class H>
void durable_tables(const Options& opt, report::BenchReport& rep, std::size_t queue_capacity) {
  const UniverseConfig ucfg = durable_universe_config(opt);
  AccountStore store(kAccounts, kInitialBalance);
  const std::string substrate(opt.substrate_name());

  report::TableData& kv = rep.add_table(
      "Durable KV transfer throughput vs threads (" + std::to_string(kAccounts) +
          " accounts, redo-logged commits, substrate=" + substrate + ")");
  run_figure<H>(ucfg, kv, kDurableSeries, opt, transfer_op(store), true, "", kFenceMetrics);
  add_view(rep, kv,
           "Durable fence cost per commit, KV transfers (pwb+pfence+psync, substrate=" +
               substrate + ")",
           "fences_per_commit");

  // Every run starts from a half-full queue: the hook refills it after
  // each run, so no series inherits the occupancy the one before left.
  TxnQueue queue(queue_capacity);
  queue.unsafe_reset(queue_capacity / 2);
  const auto queue_metrics = [&](report::Point& p, const ThroughputResult& r, auto& universe) {
    kFenceMetrics(p, r, universe);
    queue.unsafe_reset(queue_capacity / 2);
  };
  report::TableData& q = rep.add_table(
      "Durable MPMC queue throughput vs threads (capacity " +
          std::to_string(queue_capacity) + ", 1:1 producers:consumers, substrate=" +
          substrate + ")");
  add_series(q, kDurableSeries);
  for (const unsigned threads : opt.threads) {
    add_calibrated_point<H>(q, 0, kDurableSeries, ucfg, opt, threads, threads,
                            queue_op(queue, threads, 50), true, queue_metrics);
  }
}

}  // namespace

RHTM_SCENARIO(durable, "extension (durability)",
              "durable redo-logged commits: KV + queue throughput and "
              "fences-per-commit, durable protocol set") {
  // Durable commits need abort-capable hardware transactions (locked stripe
  // stamps inside the txn); HtmEmul cannot roll those back, so an emul
  // request runs on sim instead — recorded, never silent.
  Options eff = opt;
  const bool remapped = eff.substrate == SubstrateKind::kEmul;
  if (remapped) eff.substrate = SubstrateKind::kSim;

  report::BenchReport rep;
  rep.substrate = eff.substrate_name();
  const std::size_t queue_capacity = eff.full ? 65536 : 4096;
  rep.set_meta("workload", "durable account transfers + durable txn_queue");
  rep.set_meta("accounts", std::to_string(kAccounts));
  rep.set_meta("queue_capacity", std::to_string(queue_capacity));
  rep.set_meta("log_words", std::to_string(durable_universe_config(eff).pmem.log_words));
  if (remapped) rep.set_meta("emul_remapped_to", "sim");
  dispatch_substrate(eff, [&]<class H>(SubstrateTag<H>) {
    durable_tables<H>(eff, rep, queue_capacity);
  });
  return rep;
}

}  // namespace rhtm::bench
