#pragma once

// The unified scenario registry. Every (workload, protocol-set, knobs)
// scenario self-registers at static-init time via RHTM_SCENARIO; the
// driver in bench/run_all.cpp enumerates (`--list`), filters
// (`--scenario=fig1,skiplist`) and runs them, printing each scenario's
// paper-style tables and writing its BENCH_<scenario>.json report.
//
// A scenario is a function from Options to a report::BenchReport. It must
// fill the report's tables (and, ideally, substrate + meta); the driver
// stamps the scenario name, the per-point seconds and the wall clock.

#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace rhtm::bench {

struct Scenario {
  const char* name;       ///< registry key; also the BENCH_<name>.json stem
  const char* paper_ref;  ///< figure / section mapping ("Fig. 1", "§2.2 (A1)", "—")
  const char* summary;    ///< one line for --list
  report::BenchReport (*run)(const Options&);
};

class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void add(const Scenario& s) { scenarios_.push_back(s); }

  /// Registered scenarios in name order.
  [[nodiscard]] std::vector<Scenario> sorted() const {
    std::vector<Scenario> v = scenarios_;
    std::sort(v.begin(), v.end(), [](const Scenario& a, const Scenario& b) {
      return std::strcmp(a.name, b.name) < 0;
    });
    return v;
  }

 private:
  std::vector<Scenario> scenarios_;
};

struct ScenarioRegistrar {
  explicit ScenarioRegistrar(const Scenario& s) { Registry::instance().add(s); }
};

/// Defines and registers a scenario. Use at namespace scope inside
/// rhtm::bench; the function body receives `const Options& opt` and must
/// return the filled report::BenchReport.
#define RHTM_SCENARIO(name_, paper_ref_, summary_)                                  \
  static ::rhtm::report::BenchReport rhtm_scenario_##name_(const Options&);         \
  static const ::rhtm::bench::ScenarioRegistrar rhtm_scenario_registrar_##name_{    \
      ::rhtm::bench::Scenario{#name_, paper_ref_, summary_, &rhtm_scenario_##name_}}; \
  static ::rhtm::report::BenchReport rhtm_scenario_##name_(const Options& opt)

}  // namespace rhtm::bench
