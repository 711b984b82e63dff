// Substrate-conformance suite: every compiled-in substrate (HtmEmul,
// HtmSim, HtmRtm) must present the same concept surface with the same
// observable single-threaded semantics — committed stores become visible,
// the configured capacity budgets abort deterministically, explicit aborts
// and injection poisoning report their statuses, the non-transactional
// accessors round-trip, and the publication epoch is even whenever no
// publication is in flight. (Multi-threaded serializability is covered per
// substrate in protocol_invariants_test; HtmEmul is excluded there by
// design — it has no conflict detection — so its whole-stack coverage is
// the serial conservation check here.)
//
// The rtm substrate additionally pins the graceful-degradation contract:
// on a host without usable RTM, execute() fails cleanly with a capacity
// outcome (never SIGILL) and a protocol stacked on the substrate still
// commits every transaction through its software paths.

#include <string>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

/// Whether hardware attempts on this substrate can actually commit. Always
/// true for the emulated/simulated substrates; for rtm it is a runtime
/// property of the host.
template <class H>
bool hardware_commits() {
  return true;
}
template <>
bool hardware_commits<HtmRtm>() {
  return HtmRtm::hardware_viable();
}

/// Real hardware aborts spuriously (interrupts, page faults), so substrate
/// assertions retry a bounded number of times before judging the outcome.
template <class H, class Body>
HtmOutcome execute_retry(H& htm, typename H::Tx& tx, Body&& body) {
  HtmOutcome out{};
  for (int i = 0; i < 256; ++i) {
    out = htm.execute(tx, body);
    if (out.ok()) return out;
  }
  return out;
}

template <class H>
void commit_visibility() {
  H htm;
  typename H::Tx tx(htm);
  TmCell a;
  TmCell b;
  const HtmOutcome out = execute_retry(htm, tx, [&](typename H::Tx& t) {
    t.store(a, 7);
    t.store(b, t.load(a) + 1);
  });
  if (hardware_commits<H>()) {
    CHECK(out.ok());
    CHECK_EQ(htm.nontx_load(a), 7u);
    CHECK_EQ(htm.nontx_load(b), 8u);
  } else {
    CHECK(!out.ok());  // graceful failure, not a crash
    CHECK_EQ(htm.nontx_load(a), 0u);
  }
}

/// The configured budgets are a portable contract: exceeding them must
/// produce kCapacity on every substrate. (An unavailable rtm host reports
/// every attempt as kCapacity, which satisfies the same postcondition.)
template <class H>
void capacity_budgets() {
  HtmConfig cfg;
  cfg.max_read_set = 32;
  cfg.max_write_set = 16;
  H htm(cfg);
  typename H::Tx tx(htm);
  std::vector<TmCell> cells(64);

  HtmOutcome out{};
  for (int i = 0; i < 256; ++i) {
    out = htm.execute(tx, [&](typename H::Tx& t) {
      TmWord sum = 0;
      for (const TmCell& c : cells) sum += t.load(c);  // 64 > 32: must abort
    });
    if (out.ok() || out.status == HtmStatus::kCapacity) break;
  }
  CHECK(!out.ok());
  CHECK(out.status == HtmStatus::kCapacity);

  for (int i = 0; i < 256; ++i) {
    out = htm.execute(tx, [&](typename H::Tx& t) {
      for (TmCell& c : cells) t.store(c, 1);  // 64 > 16: must abort
    });
    if (out.ok() || out.status == HtmStatus::kCapacity) break;
  }
  CHECK(!out.ok());
  CHECK(out.status == HtmStatus::kCapacity);
}

template <class H>
void explicit_abort_and_poison() {
  if (!hardware_commits<H>()) return;  // unreachable statuses without hardware
  H htm;
  typename H::Tx tx(htm);
  TmCell c;

  HtmOutcome out{};
  for (int i = 0; i < 256; ++i) {
    out = htm.execute(tx, [&](typename H::Tx& t) {
      t.store(c, 1);
      t.abort_explicit();
    });
    if (out.status == HtmStatus::kExplicit) break;
  }
  CHECK(out.status == HtmStatus::kExplicit);
  if (SubstrateTraits<H>::kAtomic) {
    CHECK_EQ(htm.nontx_load(c), 0u);  // aborted stores roll back
  }

  for (int i = 0; i < 256; ++i) {
    out = htm.execute(tx, [&](typename H::Tx& t) {
      t.poison();
      t.store(c, 2);
    });
    if (out.status == HtmStatus::kInjected) break;
  }
  CHECK(out.status == HtmStatus::kInjected);
  if (SubstrateTraits<H>::kAtomic) {
    CHECK_EQ(htm.nontx_load(c), 0u);
  }
}

template <class H>
void nontx_and_publication_epoch() {
  H htm;
  TmCell a;
  TmCell b;
  htm.nontx_store(a, 42);
  CHECK_EQ(htm.nontx_load(a), 42u);
  CHECK_EQ(htm.publication_epoch() % 2, 0u);  // settled when idle

  struct Ent {
    TmCell* cell;
    TmWord value;
  };
  const std::vector<Ent> batch = {{&a, 5}, {&b, 6}};
  const TmWord before = htm.publication_epoch();
  htm.nontx_publish(batch);
  CHECK_EQ(htm.nontx_load(a), 5u);
  CHECK_EQ(htm.nontx_load(b), 6u);
  CHECK_EQ(htm.publication_epoch() % 2, 0u);
  CHECK(htm.publication_epoch() >= before);
}

/// Whole-stack single-threaded conservation: the protocol layer over this
/// substrate must commit every transfer with correct values — on rtm hosts
/// without hardware this exercises exactly the graceful software fallback.
template <class H>
void serial_protocol_conservation() {
  constexpr std::size_t kAccounts = 16;
  constexpr TmWord kEach = 100;
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  HybridTm<H> tm(u, cfg);
  typename HybridTm<H>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> accounts(kAccounts);
  for (auto& a : accounts) a.unsafe_write(kEach);
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t from = rng.below(kAccounts);
    const std::size_t to = rng.below(kAccounts);
    const TmWord amount = rng.below(5);
    tm.atomically(ctx, [&](auto& tx) {
      const TmWord f = accounts[from].read(tx);
      if (f >= amount) {
        accounts[from].write(tx, f - amount);
        accounts[to].write(tx, accounts[to].read(tx) + amount);
      }
    });
  }
  CHECK_EQ(ctx.stats.commits, 2000u);
  TmWord total = 0;
  for (const auto& a : accounts) total += a.unsafe_read();
  CHECK_EQ(total, kAccounts * kEach);
}

template <class H>
void conformance() {
  std::printf("    substrate=%s atomic=%d hardware_commits=%d\n",
              SubstrateTraits<H>::kName, SubstrateTraits<H>::kAtomic ? 1 : 0,
              hardware_commits<H>() ? 1 : 0);
  commit_visibility<H>();
  capacity_budgets<H>();
  explicit_abort_and_poison<H>();
  nontx_and_publication_epoch<H>();
  serial_protocol_conservation<H>();
}

/// HtmSim budgets count distinct cells, not accesses: one transaction may
/// rewrite one cell far more often than max_write_set and still commit.
void sim_rewrites_past_write_budget() {
  HtmConfig cfg;
  cfg.max_write_set = 4;
  HtmSim htm(cfg);
  HtmSim::Tx tx(htm);
  TmCell c;
  const HtmOutcome out = htm.execute(tx, [&](HtmSim::Tx& t) {
    for (TmWord i = 1; i <= 100; ++i) t.store(c, i);
  });
  CHECK(out.ok());
  CHECK_EQ(htm.nontx_load(c), 100u);
}

/// ... and re-reads of one cell far past max_read_set.
void sim_rereads_past_read_budget() {
  HtmConfig cfg;
  cfg.max_read_set = 4;
  HtmSim htm(cfg);
  HtmSim::Tx tx(htm);
  TmCell c(3);
  TmWord sum = 0;
  const HtmOutcome out = htm.execute(tx, [&](HtmSim::Tx& t) {
    sum = 0;
    for (int i = 0; i < 100; ++i) sum += t.load(c);
  });
  CHECK(out.ok());
  CHECK_EQ(sum, 300u);
}

/// A re-read that sees a value different from the cell's first read aborts
/// kConflict at that load: the body never runs on the inconsistent view.
void sim_changed_reread_aborts_at_the_load() {
  HtmSim htm;
  HtmSim::Tx tx(htm);
  TmCell c(1);
  bool ran_past_second_load = false;
  const HtmOutcome out = htm.execute(tx, [&](HtmSim::Tx& t) {
    (void)t.load(c);
    htm.nontx_store(c, 2);  // a concurrent writer, landing mid-transaction
    (void)t.load(c);
    ran_past_second_load = true;
  });
  CHECK(out.status == HtmStatus::kConflict);
  CHECK(!ran_past_second_load);
  CHECK_EQ(htm.nontx_load(c), 2u);
}

/// The rtm gating contract itself: the availability predicates are
/// consistent, and a host without usable RTM degrades to clean failures.
void rtm_gating() {
  std::printf("    RHTM_HAVE_RTM=%d available=%d hardware_viable=%d\n", RHTM_HAVE_RTM,
              HtmRtm::available() ? 1 : 0, HtmRtm::hardware_viable() ? 1 : 0);
  CHECK(substrate_compiled(SubstrateKind::kEmul));
  CHECK(substrate_compiled(SubstrateKind::kSim));
  CHECK_EQ(substrate_compiled(SubstrateKind::kRtm), RHTM_HAVE_RTM != 0);
  if (!substrate_compiled(SubstrateKind::kRtm)) CHECK(!HtmRtm::available());
  if (!HtmRtm::available()) CHECK(!HtmRtm::hardware_viable());

  if (!HtmRtm::hardware_viable()) {
    // Every attempt must fail cleanly as a capacity outcome — the signal
    // protocols escalate on. With RTM entirely absent the body must never
    // run; with CPUID-advertised-but-force-aborted TSX it may start and be
    // rolled back, which the outcome check still covers.
    HtmRtm htm;
    HtmRtm::Tx tx(htm);
    bool body_ran = false;
    const HtmOutcome out = htm.execute(tx, [&](HtmRtm::Tx&) { body_ran = true; });
    CHECK(!out.ok());
    CHECK(out.status == HtmStatus::kCapacity);
    if (!HtmRtm::available()) CHECK(!body_ran);
  }
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"emul_conformance", rhtm::conformance<rhtm::HtmEmul>},
      TestCase{"sim_conformance", rhtm::conformance<rhtm::HtmSim>},
      TestCase{"rtm_conformance", rhtm::conformance<rhtm::HtmRtm>},
      TestCase{"sim_rewrites_past_write_budget", rhtm::sim_rewrites_past_write_budget},
      TestCase{"sim_rereads_past_read_budget", rhtm::sim_rereads_past_read_budget},
      TestCase{"sim_changed_reread_aborts_at_the_load",
               rhtm::sim_changed_reread_aborts_at_the_load},
      TestCase{"rtm_gating", rhtm::rtm_gating},
  });
}
