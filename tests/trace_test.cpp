// Trace-ring and exporter coverage (core/trace.h, core/trace_export.h):
//
//  * wrap-around exactness — the ring keeps the LAST capacity events and
//    dropped() is exact arithmetic, not an estimate;
//  * cross-thread merge — merged_events() is one timeline ordered by TSC
//    with every ring's own order preserved;
//  * Chrome JSON round-trip — the exporter's output re-parsed by a minimal
//    JSON parser (the report_test pattern) and checked event by event;
//  * protocol invariants under every protocol — every abort event carries
//    a valid AbortCause, every commit a valid ExecPath tier, and the event
//    counts agree exactly with TxStats;
//  * durable phase ordering — log -> mark -> apply -> commit, per
//    transaction, on the durable TL2 commit path.

#include "core/trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <cctype>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm::test {
namespace {

// ------------------------------------------------- a minimal JSON parser --
// Just enough JSON to re-parse the exporter's own output (objects, arrays,
// strings, numbers, literals). Same shape as report_test's parser.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = s_[pos_] == 't';
        pos_ += v.boolean ? 4 : 5;
        return v;
      }
      case 'n': {
        pos_ += 4;
        return {};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      std::string key = (peek(), string());
      expect(':');
      v.object.emplace_back(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: throw std::runtime_error("bad escape char");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

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

// --------------------------------------------------- Chrome JSON round-trip --

void test_chrome_json_roundtrip() {
  trace::Tracer tracer;
  trace::TraceRing* r = tracer.acquire_ring();
  CHECK(r != nullptr);

  // A synthetic lifecycle: an aborted-then-committed fast transaction, a
  // durable STM transaction, and one of each instant-event family.
  trace::tx_begin(r);
  trace::attempt(r, ExecPath::kRh1Fast, 1);
  trace::abort(r, AbortCause::kHtmConflict);
  trace::attempt(r, ExecPath::kRh1Fast, 2);
  trace::commit(r, ExecPath::kRh1Fast);
  trace::tx_begin(r);
  trace::durable_phase(r, trace::EventKind::kDurLog, 1000);
  trace::durable_phase(r, trace::EventKind::kDurMark, 500);
  trace::durable_phase(r, trace::EventKind::kDurApply, 250);
  trace::commit(r, ExecPath::kStm);
  trace::cm_event(r, trace::EventKind::kSwModeEnter);
  trace::cm_event(r, trace::EventKind::kSwModeExit);
  trace::fallback_lock(r);
  trace::escalate(r, ExecPath::kRh2Slow);

  const std::string json = trace::chrome_json(tracer);
  JsonValue root;
  try {
    root = JsonParser(json).parse();
  } catch (const std::exception& e) {
    std::printf("    parse error: %s\n%s\n", e.what(), json.c_str());
    CHECK(false);
    return;
  }

  const JsonValue* other = root.get("otherData");
  CHECK(other != nullptr && other->kind == JsonValue::Kind::kObject);
  CHECK(other->get("schema") != nullptr &&
        other->get("schema")->string == trace::kTraceSchemaId);
  CHECK(other->get("rings")->number == 1);
  CHECK(other->get("events")->number == static_cast<double>(r->total()));
  CHECK(other->get("dropped")->number == 0);
  CHECK(other->get("tsc_hz")->number > 0);

  const JsonValue* events = root.get("traceEvents");
  CHECK(events != nullptr && events->kind == JsonValue::Kind::kArray);

  std::size_t meta = 0;
  std::vector<std::string> slices;   // "X" names, in document order
  std::vector<std::string> instants; // "i" names, in document order
  for (const JsonValue& e : events->array) {
    const std::string ph = e.get("ph")->string;
    const std::string name = e.get("name")->string;
    if (ph == "M") {
      ++meta;
      continue;
    }
    CHECK(e.get("ts") != nullptr && e.get("ts")->number >= 0);
    CHECK(e.get("pid")->number == 1);
    CHECK(e.get("tid")->number == r->id());
    if (ph == "X") {
      CHECK(e.get("dur") != nullptr && e.get("dur")->number >= 0);
      slices.push_back(name);
      if (name.rfind("tx:", 0) == 0) {
        const JsonValue* args = e.get("args");
        CHECK(args != nullptr && args->get("tier") != nullptr);
        CHECK("tx:" + args->get("tier")->string == name);
      }
    } else {
      CHECK(ph == "i");
      instants.push_back(name);
    }
  }
  CHECK_EQ(meta, 2u);  // process_name + one thread_name
  const std::vector<std::string> want_slices = {"tx:rh1_fast", "dur:log", "dur:mark",
                                                "dur:apply", "tx:stm"};
  CHECK(slices == want_slices);
  const std::vector<std::string> want_instants = {
      "attempt:rh1_fast", "abort:htm_conflict", "attempt:rh1_fast",
      "cm:sw_enter",      "cm:sw_exit",         "fallback_lock",
      "esc:rh2_slow"};
  CHECK(instants == want_instants);
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
      {"chrome_json_roundtrip", rhtm::test::test_chrome_json_roundtrip},
      {"protocol_invariants_traced", rhtm::test::test_protocol_invariants_traced},
      {"durable_phase_ordering", rhtm::test::test_durable_phase_ordering},
      {"disabled_helpers_are_noops", rhtm::test::test_disabled_helpers_are_noops},
  });
}
