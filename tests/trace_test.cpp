// Trace-ring and trace-file coverage (core/trace.h):
//
//  * wrap-around exactness — the ring keeps the LAST capacity events and
//    dropped() is exact arithmetic, not an estimate;
//  * cross-thread merge — merged_events() is one timeline ordered by TSC
//    with every ring's own order preserved;
//  * binary round-trip — write_binary()'s file read back: header counts,
//    exact per-ring drops, every resident event byte for byte;
//  * the anomaly dump — a forked child killed mid-commit leaves a file
//    holding exactly the phases its transaction reached;
//  * protocol invariants under every protocol — every abort event carries
//    a valid AbortCause, every commit a valid ExecPath tier, and the event
//    counts agree exactly with TxStats;
//  * durable phase ordering — log -> mark -> apply -> commit, per
//    transaction, on the durable TL2 commit path.
//
// scripts/trace_summary.py --self-test covers the reader and the Chrome
// JSON rendering.

#include "core/trace.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "crash_harness.h"
#include "test_common.h"

namespace rhtm::test {
namespace {

// ------------------------------------------------------------- ring tests --

void test_wraparound_exactness() {
  trace::TraceRing r(16, 7);
  for (std::uint32_t i = 0; i < 40; ++i) {
    r.emit(trace::EventKind::kHwAttempt, 0, i);
  }
  CHECK_EQ(r.total(), 40u);
  CHECK_EQ(r.size(), 16u);
  CHECK_EQ(r.dropped(), 24u);  // exactly total - capacity, never an estimate
  // The resident window is the LAST 16 emits, oldest first.
  for (std::size_t i = 0; i < r.size(); ++i) {
    CHECK_EQ(r.event(i).arg, 24u + i);
    CHECK_EQ(r.event(i).ring, 7u);
  }
}

void test_no_drop_before_wrap() {
  trace::TraceRing r(16, 0);
  for (std::uint32_t i = 0; i < 10; ++i) r.emit(trace::EventKind::kCommit, 0, i);
  CHECK_EQ(r.total(), 10u);
  CHECK_EQ(r.size(), 10u);
  CHECK_EQ(r.dropped(), 0u);
  for (std::size_t i = 0; i < 10; ++i) CHECK_EQ(r.event(i).arg, i);
}

void test_tracer_capacity_rounding_and_denial() {
  trace::TracerConfig cfg;
  cfg.ring_capacity = 100;  // not a power of two
  cfg.max_rings = 2;
  trace::Tracer tracer(cfg);
  trace::TraceRing* a = tracer.acquire_ring();
  trace::TraceRing* b = tracer.acquire_ring();
  CHECK(a != nullptr && b != nullptr);
  CHECK_EQ(a->capacity(), 128u);  // rounded UP to the next power of two
  CHECK(a->id() != b->id());
  CHECK(tracer.acquire_ring() == nullptr);  // over the ceiling: untraced, counted
  CHECK_EQ(tracer.denied_rings(), 1u);
  CHECK_EQ(tracer.ring_count(), 2u);
  // A capacity past the ceiling clamps to it (no ring is built here); the
  // rounding used to double until it wrapped to zero and spun forever.
  cfg.ring_capacity = ~std::size_t{0};
  CHECK_EQ(trace::Tracer(cfg).config().ring_capacity, trace::kMaxRingCapacity);
}

void test_cross_thread_merge() {
  trace::Tracer tracer;
  constexpr unsigned kThreads = 3;
  constexpr std::uint32_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      trace::TraceRing* r = tracer.acquire_ring();
      CHECK(r != nullptr);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        r->emit(trace::EventKind::kHwAttempt, static_cast<std::uint8_t>(t), i);
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<trace::Event> merged = tracer.merged_events();
  CHECK_EQ(merged.size(), kThreads * kPerThread);
  // One timeline: timestamps nondecreasing across the whole merge...
  for (std::size_t i = 1; i < merged.size(); ++i) {
    CHECK(merged[i - 1].tsc <= merged[i].tsc);
  }
  // ...and each ring's own emission order preserved within it.
  std::uint32_t next_arg[kThreads] = {};
  for (const trace::Event& e : merged) {
    CHECK(e.ring < kThreads);
    CHECK_EQ(e.arg, next_arg[e.ring]);
    ++next_arg[e.ring];
  }
  for (unsigned t = 0; t < kThreads; ++t) CHECK_EQ(next_arg[t], kPerThread);
}

void test_anomaly_hook() {
  static std::atomic<int> calls{0};
  static std::string last_reason;
  calls.store(0);  // repeatable under RHTM_TEST_REPEAT
  trace::set_anomaly_hook(+[](const char* reason) {
    last_reason = reason;
    calls.fetch_add(1);
  });
  trace::anomaly("unit_test_anomaly");
  CHECK_EQ(calls.load(), 1);
  CHECK(last_reason == "unit_test_anomaly");
  trace::set_anomaly_hook(nullptr);
  trace::anomaly("ignored");  // disarmed: must be a no-op, not a crash
  CHECK_EQ(calls.load(), 1);
}

// ------------------------------------------------------ binary round-trip --

/// A trace file read back: the header, and per ring its header and events.
struct TraceFile {
  trace::FileHeader header;
  std::vector<trace::RingHeader> rings;
  std::vector<std::vector<trace::Event>> events;  ///< per ring, oldest first
  bool ok = false;  ///< parsed to the exact end of the file
};

TraceFile read_trace_file(const std::string& path) {
  TraceFile t;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return t;
  bool ok = std::fread(&t.header, sizeof t.header, 1, f) == 1 &&
            std::memcmp(t.header.magic, trace::kFileMagic, sizeof t.header.magic) == 0 &&
            t.header.version == trace::kFileVersion;
  for (std::uint32_t i = 0; ok && i < t.header.rings; ++i) {
    trace::RingHeader rh;
    ok = std::fread(&rh, sizeof rh, 1, f) == 1;
    std::vector<trace::Event> ev(ok ? rh.resident : 0);
    ok = ok && std::fread(ev.data(), sizeof(trace::Event), ev.size(), f) == ev.size();
    t.rings.push_back(rh);
    t.events.push_back(std::move(ev));
  }
  t.ok = ok && std::fgetc(f) == EOF;
  std::fclose(f);
  return t;
}

std::string temp_trace_path(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "_" + std::to_string(getpid()) + ".rhtrace"))
      .string();
}

void test_binary_roundtrip() {
  trace::TracerConfig cfg;
  cfg.ring_capacity = 16;
  trace::Tracer tracer(cfg);
  trace::TraceRing* wrapped = tracer.acquire_ring();
  trace::TraceRing* small = tracer.acquire_ring();
  CHECK(wrapped != nullptr && small != nullptr);
  for (std::uint32_t i = 0; i < 40; ++i) {
    wrapped->emit(trace::EventKind::kHwAttempt, static_cast<std::uint8_t>(i % 6), i);
  }
  trace::tx_begin(small);
  trace::abort(small, AbortCause::kStmLocked);
  trace::commit(small, ExecPath::kStm);

  const std::string path = temp_trace_path("trace_test_roundtrip");
  CHECK(trace::write_binary(tracer, path));
  const TraceFile t = read_trace_file(path);
  std::remove(path.c_str());
  CHECK(t.ok);
  if (!t.ok) return;
  CHECK_EQ(t.header.rings, 2u);
  CHECK_EQ(t.header.events, 43u);
  CHECK_EQ(t.header.dropped, 24u);  // exact: the wrapped ring's 40 - 16
  CHECK_EQ(t.header.denied_rings, 0u);
  CHECK_EQ(t.header.tsc0, tracer.tsc0());
  CHECK(t.header.tsc_hz > 0);
  const trace::TraceRing* rings[] = {wrapped, small};
  for (std::size_t k = 0; k < 2; ++k) {
    const trace::TraceRing& r = *rings[k];
    CHECK_EQ(t.rings[k].id, r.id());
    CHECK_EQ(t.rings[k].total, r.total());
    CHECK_EQ(t.rings[k].total - t.rings[k].resident, r.dropped());
    CHECK_EQ(t.events[k].size(), r.size());
    // Every resident event, byte for byte, oldest first.
    for (std::size_t i = 0; i < t.events[k].size(); ++i) {
      CHECK(std::memcmp(&t.events[k][i], &r.event(i), sizeof(trace::Event)) == 0);
    }
  }
  CHECK_EQ(t.events[0].front().arg, 24u);  // the oldest survivor of the wrap
}

/// The flight-recorder dump on a simulated power failure: a forked child
/// dies at the durability point of a traced TL2 commit; the anomaly hook's
/// file must hold that transaction's log and mark phases and no commit.
void test_anomaly_dump_on_crash() {
  static trace::Tracer* s_tracer = nullptr;
  static std::string s_path;
  s_path = temp_trace_path("trace_test_crash");
  std::remove(s_path.c_str());
  const crash::ChildOutcome outcome = crash::run_crash_child([] {
    trace::Tracer tracer;
    UniverseConfig ucfg;
    ucfg.tracer = &tracer;
    ucfg.durable = true;
    TmUniverse<HtmSim> u(ucfg);
    Tl2<HtmSim> tm(u);
    TVar<TmWord> var;
    s_tracer = &tracer;
    trace::set_anomaly_hook(+[](const char*) { (void)trace::write_binary(*s_tracer, s_path); });
    pmem::arm_kill("tl2.after_mark");
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    tm.atomically(ctx, [&](auto& tx) { var.write(tx, 1); });
  });
  CHECK(outcome == crash::ChildOutcome::kKilled);
  const TraceFile t = read_trace_file(s_path);
  std::remove(s_path.c_str());
  CHECK(t.ok);
  CHECK_EQ(t.events.size(), 1u);
  if (!t.ok || t.events.size() != 1) return;
  // The transaction's phase and commit events: dumped at the durability
  // point, it logged and marked but neither applied nor committed.
  std::vector<trace::EventKind> phases;
  for (const trace::Event& e : t.events[0]) {
    switch (e.event_kind()) {
      case trace::EventKind::kDurLog:
      case trace::EventKind::kDurMark:
      case trace::EventKind::kDurApply:
      case trace::EventKind::kCommit: phases.push_back(e.event_kind()); break;
      default: break;
    }
  }
  CHECK(!t.events[0].empty() &&
        t.events[0].front().event_kind() == trace::EventKind::kTxBegin);
  const std::vector<trace::EventKind> want = {trace::EventKind::kDurLog,
                                              trace::EventKind::kDurMark};
  CHECK(phases == want);
}

// ---------------------------------------------- protocol-level invariants --

/// One protocol under 2 threads with injection: every abort event names a
/// valid cause, every commit a valid tier, and the trace's event counts
/// equal the merged TxStats exactly.
template <template <class> class Tm, class Configure>
void check_protocol_invariants_traced(const char* name, Configure&& configure) {
  std::printf("    protocol %s (substrate sim)\n", name);
  trace::TracerConfig tcfg;
  tcfg.ring_capacity = std::size_t{1} << 15;  // ample: a drop would break pairing
  trace::Tracer tracer(tcfg);
  UniverseConfig ucfg;
  ucfg.tracer = &tracer;
  TmUniverse<HtmSim> u(ucfg);
  typename Tm<HtmSim>::Config cfg;
  const bool injects = configure(cfg);
  Tm<HtmSim> tm(u, cfg);

  constexpr std::size_t kVars = 32;
  std::vector<TVar<TmWord>> vars(kVars);
  TxStats total;
  std::vector<std::thread> threads;
  std::mutex merge_mu;
  for (unsigned t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      typename Tm<HtmSim>::ThreadCtx ctx(tm);
      Xoshiro256 rng(42 + t);
      for (int i = 0; i < 1500; ++i) {
        const std::size_t j = rng.below(kVars);
        tm.atomically(ctx, [&](auto& tx) {
          vars[j].write(tx, vars[j].read(tx) + 1);
        });
      }
      const std::lock_guard<std::mutex> lk(merge_mu);
      total.merge(ctx.stats);
    });
  }
  for (auto& th : threads) th.join();

  CHECK_EQ(tracer.total_dropped(), 0u);
  std::uint64_t begins = 0, commits = 0, aborts = 0;
  std::uint64_t commits_by_tier[static_cast<std::size_t>(ExecPath::kCount)] = {};
  for (const trace::Event& e : tracer.merged_events()) {
    switch (e.event_kind()) {
      case trace::EventKind::kTxBegin:
        ++begins;
        break;
      case trace::EventKind::kCommit:
        // Every commit names a valid tier.
        CHECK(e.a < static_cast<std::uint8_t>(ExecPath::kCount));
        ++commits_by_tier[e.a];
        ++commits;
        break;
      case trace::EventKind::kAbort:
        // Every abort names a valid cause.
        CHECK(e.a < static_cast<std::uint8_t>(AbortCause::kCount));
        ++aborts;
        break;
      default:
        break;
    }
  }
  // The trace and the stats counters describe the SAME history.
  CHECK_EQ(commits, total.commits);
  CHECK_EQ(aborts, total.aborts);
  CHECK_EQ(begins, 2u * 1500u);  // one begin per atomically() call
  for (std::size_t p = 0; p < static_cast<std::size_t>(ExecPath::kCount); ++p) {
    CHECK_EQ(commits_by_tier[p], total.commits_by_path[p]);
  }
  if (injects) CHECK(aborts > 0);  // the injector must actually have fired
}

constexpr std::uint32_t kInject = 2000;  // plenty of aborts and slow-path traffic

void test_protocol_invariants_traced() {
  check_protocol_invariants_traced<HybridTm>("HybridTm", [](auto& cfg) {
    cfg.slow_retry_percent = 100;
    cfg.inject_abort_bp = kInject;
    return true;
  });
  check_protocol_invariants_traced<HtmOnly>("HtmOnly", [](auto& cfg) {
    cfg.inject_abort_bp = kInject;
    return true;
  });
  check_protocol_invariants_traced<HtmOnly>("HtmOnly-TATAS", [](auto& cfg) {
    cfg.inject_abort_bp = kInject;
    cfg.max_hw_attempts = 8;
    cfg.capacity_retries = 2;
    return true;
  });
  check_protocol_invariants_traced<StandardHytm>("StandardHytm", [](auto& cfg) {
    cfg.inject_abort_bp = kInject;
    return true;
  });
  check_protocol_invariants_traced<StandardHytm>("StandardHytm-hw-only", [](auto& cfg) {
    cfg.hardware_only = true;
    cfg.inject_abort_bp = kInject;
    return true;
  });
  check_protocol_invariants_traced<Tl2>("Tl2", [](auto&) { return false; });
  check_protocol_invariants_traced<HybridNorec>("HybridNorec", [](auto& cfg) {
    cfg.inject_abort_bp = kInject;
    return true;
  });
  check_protocol_invariants_traced<PhasedTm>("PhasedTm", [](auto& cfg) {
    cfg.inject_abort_bp = kInject;
    return true;
  });
}

void test_durable_phase_ordering() {
  trace::Tracer tracer;
  UniverseConfig ucfg;
  ucfg.tracer = &tracer;
  ucfg.durable = true;
  TmUniverse<HtmSim> u(ucfg);
  Tl2<HtmSim> tm(u);
  std::vector<TVar<TmWord>> vars(8);
  {
    Tl2<HtmSim>::ThreadCtx ctx(tm);
    for (int i = 0; i < 50; ++i) {
      tm.atomically(ctx, [&](auto& tx) {
        vars[static_cast<std::size_t>(i) % vars.size()].write(
            tx, static_cast<TmWord>(i));
      });
    }
  }
  // Single producer, no aborts: each write transaction must record exactly
  // log -> mark -> apply between its begin and its commit, in that order.
  int phase = 0;
  std::uint64_t durable_commits = 0;
  for (const trace::Event& e : tracer.merged_events()) {
    switch (e.event_kind()) {
      case trace::EventKind::kTxBegin: phase = 0; break;
      case trace::EventKind::kDurLog:
        CHECK_EQ(phase, 0);
        phase = 1;
        break;
      case trace::EventKind::kDurMark:
        CHECK_EQ(phase, 1);
        phase = 2;
        break;
      case trace::EventKind::kDurApply:
        CHECK_EQ(phase, 2);
        phase = 3;
        break;
      case trace::EventKind::kCommit:
        CHECK_EQ(phase, 3);
        ++durable_commits;
        break;
      default: break;
    }
  }
  CHECK_EQ(durable_commits, 50u);
}

void test_disabled_helpers_are_noops() {
  // The disabled path every untraced universe takes: null ring, no effect.
  trace::tx_begin(nullptr);
  trace::attempt(nullptr, ExecPath::kHtm);
  trace::abort(nullptr, AbortCause::kHtmConflict);
  trace::escalate(nullptr, ExecPath::kStm);
  trace::fallback_lock(nullptr);
  trace::commit(nullptr, ExecPath::kHtm);
  trace::cm_event(nullptr, trace::EventKind::kSwModeEnter);
  trace::durable_phase(nullptr, trace::EventKind::kDurLog, 1);
  CHECK(true);
}

}  // namespace
}  // namespace rhtm::test

int main() {
  return rhtm::test::run_tests({
      {"wraparound_exactness", rhtm::test::test_wraparound_exactness},
      {"no_drop_before_wrap", rhtm::test::test_no_drop_before_wrap},
      {"tracer_capacity_rounding_and_denial",
       rhtm::test::test_tracer_capacity_rounding_and_denial},
      {"cross_thread_merge", rhtm::test::test_cross_thread_merge},
      {"anomaly_hook", rhtm::test::test_anomaly_hook},
      {"binary_roundtrip", rhtm::test::test_binary_roundtrip},
      {"anomaly_dump_on_crash", rhtm::test::test_anomaly_dump_on_crash},
      {"protocol_invariants_traced", rhtm::test::test_protocol_invariants_traced},
      {"durable_phase_ordering", rhtm::test::test_durable_phase_ordering},
      {"disabled_helpers_are_noops", rhtm::test::test_disabled_helpers_are_noops},
  });
}
