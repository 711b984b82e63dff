// run_all — the unified driver over the scenario registry.
//
//   run_all --list                         enumerate registered scenarios
//   run_all                                run every scenario
//   run_all --scenario=fig1,skiplist       run scenarios whose name contains
//                                          "fig1" or "skiplist"
//
// Every run prints the scenario's paper-style tables and writes a
// machine-readable BENCH_<scenario>.json (see docs/BENCHMARKS.md for the
// schema and diffing recipes) built from the same stored points, unless
// --no-json is given.

#include <chrono>
#include <memory>
#include <string_view>

#include "registry.h"

namespace rhtm::bench {

namespace {

bool name_matches(const Options& opt, const char* name) {
  if (opt.scenario_filter.empty()) return true;
  for (const std::string& token : opt.scenario_filter) {
    if (std::string_view(name).find(token) != std::string_view::npos) return true;
  }
  return false;
}

// Flight-recorder state for the anomaly hook (trace::set_anomaly_hook takes
// a plain function pointer, so the tracer and path live in TU statics). The
// hook best-effort dumps whatever the rings hold at the moment of the
// anomaly — it may run on the way into _exit(), where nothing else will.
trace::Tracer* g_run_tracer = nullptr;
std::string g_run_trace_path;

void dump_trace_on_anomaly(const char* reason) {
  if (g_run_tracer == nullptr || g_run_trace_path.empty()) return;
  std::fprintf(stderr, "# trace: anomaly '%s' — dumping flight recorder to %s\n",
               reason, g_run_trace_path.c_str());
  (void)trace::write_binary(*g_run_tracer, g_run_trace_path);
}

}  // namespace

int registry_main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  const std::vector<Scenario> scenarios = Registry::instance().sorted();

  // The run-wide flight recorder: one tracer across every selected scenario
  // (rings accumulate per ThreadCtx; the file holds every ring).
  std::unique_ptr<trace::Tracer> tracer;
  if (!opt.trace_path.empty()) {
    trace::TracerConfig tcfg;
    tcfg.ring_capacity = opt.trace_cap;
    tracer = std::make_unique<trace::Tracer>(tcfg);
    opt.tracer = tracer.get();
    g_run_tracer = tracer.get();
    g_run_trace_path = opt.trace_path;
    trace::set_anomaly_hook(&dump_trace_on_anomaly);
  }

  if (opt.list) {
    std::printf("%-20s %-14s %s\n", "scenario", "paper", "summary");
    for (const Scenario& s : scenarios) {
      std::printf("%-20s %-14s %s\n", s.name, s.paper_ref, s.summary);
    }
    std::printf("# %zu scenarios registered\n", scenarios.size());
    return 0;
  }

  // One upfront diagnostic for a substrate this host cannot run (the
  // per-scenario dispatch would catch it too, but only mid-run). --list
  // stays usable everywhere: it never instantiates a substrate.
  require_substrate_available(opt);

  std::vector<const Scenario*> selected;
  for (const Scenario& s : scenarios) {
    if (name_matches(opt, s.name)) selected.push_back(&s);
  }
  for (const std::string& token : opt.scenario_filter) {
    bool hit = false;
    for (const Scenario* s : selected) {
      if (std::string_view(s->name).find(token) != std::string_view::npos) hit = true;
    }
    if (!hit) {
      std::fprintf(stderr, "%s: no scenario matches '%s'; try --list\n", argv[0],
                   token.c_str());
      return 2;
    }
  }

  bool first = true;
  for (const Scenario* s : selected) {
    if (!first) std::printf("\n");
    first = false;
    std::printf("## %s (%s)\n", s->name, s->paper_ref);
    const auto t0 = std::chrono::steady_clock::now();
    // Fresh sampler per scenario, installed for the duration of its run so
    // every driver's workers (workloads/driver.h) report into it.
    std::unique_ptr<timeseries::MetricsSampler> sampler;
    if (opt.timeline_interval > 0) {
      sampler = std::make_unique<timeseries::MetricsSampler>(opt.timeline_interval);
      timeseries::g_sampler.store(sampler.get(), std::memory_order_release);
      sampler->start();
    }
    report::BenchReport rep = s->run(opt);
    if (sampler != nullptr) {
      timeseries::g_sampler.store(nullptr, std::memory_order_release);
      sampler->stop();
      rep.timeline = sampler->timeline_points();
    }
    rep.scenario = s->name;
    rep.seconds = opt.seconds;
    stamp_provenance(rep);                    // what built/ran this (artifact diffs)
    rep.set_meta("pin", to_string(opt.pin));  // affinity is part of a run's geometry
    if (opt.substrate == SubstrateKind::kRtm) {
      // Whether the PMU counters in this report are hardware-measured, or
      // absent and why (so a diff never mistakes "unavailable" for "zero").
      pmu::RtmCounters probe;
      rep.set_meta("pmu", probe.available()
                              ? "available"
                              : std::string("unavailable: ") + probe.reason());
    }
    rep.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    rep.print();
    if (opt.write_json) {
      const std::string path = rep.write_json(opt.json_dir);
      if (path.empty()) {
        std::fprintf(stderr, "%s: cannot write report under '%s'\n", argv[0],
                     opt.json_dir.c_str());
        return 1;
      }
      std::printf("# wrote %s\n", path.c_str());
    }
  }

  if (tracer != nullptr) {
    if (!trace::write_binary(*tracer, opt.trace_path)) {
      std::fprintf(stderr, "%s: cannot write trace to '%s'\n", argv[0],
                   opt.trace_path.c_str());
      return 1;
    }
    std::printf("# wrote trace %s (%llu events, %llu dropped, %zu rings)\n",
                opt.trace_path.c_str(),
                static_cast<unsigned long long>(tracer->total_events()),
                static_cast<unsigned long long>(tracer->total_dropped()),
                tracer->ring_count());
  }
  return 0;
}

}  // namespace rhtm::bench

int main(int argc, char** argv) { return rhtm::bench::registry_main(argc, argv); }
