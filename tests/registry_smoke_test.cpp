// Registry smoke test: every registered scenario (this binary links ALL of
// bench/'s scenario TUs) runs one tiny measurement point on the simulated
// substrate and must produce a well-formed report — at least one table,
// every table non-empty, and some nonzero primary metric. Also pins the
// registry contract itself: unique names, and the full scenario set the
// acceptance criteria enumerate.
//
// The run also pins every report's shape — per table the title, x name
// and primary metric, per series the name and x values — against values
// captured before the figure scenarios shared one sweep table. Those are
// the keys scripts/check_regression.py matches baseline and fresh runs by,
// so a refactor of the harness must reproduce them exactly. With the tiny
// sim options below they are deterministic on any host with at most two
// NUMA sockets; micro_htm's rtm series exist only where TSX is usable, so
// the shape leaves them out.
// `registry_smoke_test --print` prints the current shapes in the table's
// own syntax instead of checking them.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "test_common.h"

namespace rhtm::test {
namespace {

bench::Options tiny_options() {
  bench::Options opt;
  opt.seconds = 0.002;
  opt.calib_seconds = 0.002;
  opt.threads = {1, 2};
  opt.substrate = SubstrateKind::kSim;  // HtmSim: real conflict/capacity semantics
  opt.write_json = false;
  return opt;
}

void test_registry_contents() {
  const auto scenarios = bench::Registry::instance().sorted();
  CHECK(scenarios.size() >= 24);
  std::set<std::string> names;
  for (const bench::Scenario& s : scenarios) {
    CHECK(s.name != nullptr && s.paper_ref != nullptr && s.summary != nullptr);
    CHECK(s.run != nullptr);
    CHECK(names.insert(s.name).second);  // unique
  }
  for (const char* required :
       {"fig1_rbtree", "fig2_rbtree_mix", "fig2_breakdown", "fig3_hashtable",
        "fig3_sortedlist", "fig3_randomarray", "ext_hybrids", "ablation_clock",
        "ablation_stripes", "ablation_capacity", "ablation_readmask", "ablation_policy",
        "micro_htm", "micro_barriers", "skiplist", "zipfian_mix", "mutating_tree", "queue",
        "phased", "commit_path", "service", "durable", "contention", "numa"}) {
    CHECK(names.count(required) == 1);
  }
}

struct ShapePin {
  const char* scenario;
  const char* table;  ///< "title | x_name | primary | series@x,x; series@x,x"
};

// clang-format off
const ShapePin kExpectedShapes[] = {
    {"ablation_capacity",
     "Ablation A3 - slow-path capacity headroom (HTM budget=128 entries, stripes of 4 words, sim) | tx_words | fast_pct | RH1-Mix100@32,96,160,320,480,640,1280,2560"},
    {"ablation_clock",
     "Ablation A1 - clock policy (RH1 Mixed 100, random array, 4 threads, sim) | threads | total_ops | GV1@4; GV4@4; GV6@4"},
    {"ablation_policy",
     "Ablation A6 - retry policy vs abort pressure (counter array, 4 threads, sim) | inject_bp | total_ops | mixed-0@0,1000,5000; mixed-10@0,1000,5000,10000; mixed-100@0,1000,5000,10000; adaptive@0,1000,5000,10000"},
    {"ablation_readmask",
     "Ablation A4 - RH2 read-mask publication: fetch-add vs CAS loop (sim) | threads | total_ops | fetch_add@1,4,8; cas_loop@1,4,8"},
    {"ablation_stripes",
     "Ablation A2 - stripe geometry (TL2, random array 64K, 4 threads, sim) | granularity_log2 | total_ops | stripes=2^10@3,5,8; stripes=2^14@3,5,8; stripes=2^18@3,5,8"},
    {"commit_path",
     "Commit-path cost vs write-set size (2W zipfian re-reads, HTM budget=512 entries, 1 thread, substrate=sim) | writes | commit_ns | TL2@4,16,64,128,256,1024; RH1-Slow@4,16,64,128,256,1024; RH2@4,16,64,128,256,1024"},
    {"commit_path",
     "Commit-path throughput vs write-set size (2 threads, substrate=sim) | writes | total_ops | TL2@4,16,64,128,256,1024; RH1-Fast@4,16,64,128,256,1024; RH1-Mix100@4,16,64,128,256,1024"},
    {"contention",
     "Contended: 1K Zipfian theta=0.99, len=16, 50% writes, calibrated injection (substrate=sim) | threads | total_ops | RH1-Mix100/fixed@1,2; RH1-Mix100/adaptive@1,2; HybridNOrec/fixed@1,2; HybridNOrec/adaptive@1,2; TATAS-Elide/fixed@1,2; TATAS-Elide/adaptive@1,2; TL2@1,2"},
    {"contention",
     "Wasted speculation pct - Contended: 1K Zipfian theta=0.99, len=16, 50% writes, calibrated injection (substrate=sim) | threads | wasted_speculation_pct | RH1-Mix100/fixed@1,2; RH1-Mix100/adaptive@1,2; HybridNOrec/fixed@1,2; HybridNOrec/adaptive@1,2; TATAS-Elide/fixed@1,2; TATAS-Elide/adaptive@1,2; TL2@1,2"},
    {"contention",
     "Contended Zipfian under abort pressure: 2 threads, x=inject_bp (substrate=sim) | inject_bp | total_ops | RH1-Mix100/fixed@1000,2500,5000,10000; RH1-Mix100/adaptive@1000,2500,5000,10000; HybridNOrec/fixed@1000,2500,5000,10000; HybridNOrec/adaptive@1000,2500,5000,10000; TATAS-Elide/fixed@1000,2500,5000,10000; TATAS-Elide/adaptive@1000,2500,5000,10000; TL2@1000,2500,5000,10000"},
    {"contention",
     "Wasted speculation pct - Contended Zipfian under abort pressure: 2 threads, x=inject_bp (substrate=sim) | inject_bp | wasted_speculation_pct | RH1-Mix100/fixed@1000,2500,5000,10000; RH1-Mix100/adaptive@1000,2500,5000,10000; HybridNOrec/fixed@1000,2500,5000,10000; HybridNOrec/adaptive@1000,2500,5000,10000; TATAS-Elide/fixed@1000,2500,5000,10000; TATAS-Elide/adaptive@1000,2500,5000,10000; TL2@1000,2500,5000,10000"},
    {"contention",
     "Uncontended: 128K uniform, len=8, 20% writes (substrate=sim) | threads | total_ops | RH1-Mix100/fixed@1,2; RH1-Mix100/adaptive@1,2; HybridNOrec/fixed@1,2; HybridNOrec/adaptive@1,2; TATAS-Elide/fixed@1,2; TATAS-Elide/adaptive@1,2; TL2@1,2"},
    {"contention",
     "Capacity-stressed: len=40 all-writes, max_write_set=16 (substrate=sim) | threads | total_ops | RH1-Mix100/fixed@1,2; RH1-Mix100/adaptive@1,2; HybridNOrec/fixed@1,2; HybridNOrec/adaptive@1,2; TATAS-Elide/fixed@1,2; TATAS-Elide/adaptive@1,2; TL2@1,2"},
    {"contention",
     "Wasted speculation pct - Capacity-stressed: len=40 all-writes, max_write_set=16 (substrate=sim) | threads | wasted_speculation_pct | RH1-Mix100/fixed@1,2; RH1-Mix100/adaptive@1,2; HybridNOrec/fixed@1,2; HybridNOrec/adaptive@1,2; TATAS-Elide/fixed@1,2; TATAS-Elide/adaptive@1,2; TL2@1,2"},
    {"durable",
     "Durable KV transfer throughput vs threads (1024 accounts, redo-logged commits, substrate=sim) | threads | total_ops | TL2@1,2; RH1-Fast@1,2; RH1-Mix100@1,2; HybridNOrec@1,2"},
    {"durable",
     "Durable fence cost per commit, KV transfers (pwb+pfence+psync, substrate=sim) | threads | fences_per_commit | TL2@1,2; RH1-Fast@1,2; RH1-Mix100@1,2; HybridNOrec@1,2"},
    {"durable",
     "Durable MPMC queue throughput vs threads (capacity 4096, 1:1 producers:consumers, substrate=sim) | threads | total_ops | TL2@1,2; RH1-Fast@1,2; RH1-Mix100@1,2; HybridNOrec@1,2"},
    {"ext_hybrids",
     "ext-hybrids - RB-tree 100K, 20% writes, no software pressure (substrate=sim) | threads | total_ops | RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2; StandardHyTM@1,2; TL2@1,2"},
    {"ext_hybrids",
     "ext-hybrids - 2% oversized transactions (genuine capacity aborts, substrate=sim) | threads | total_ops | RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2; TL2@1,2"},
    {"fig1_rbtree",
     "Figure 1 - 100K Nodes Constant RB-Tree, 20% mutations (substrate=sim, total ops per point) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2"},
    {"fig2_breakdown",
     "Figure 2 - single-thread breakdown, RB-Tree 20% mutations (substrate=sim) | write_percent | speedup_vs_tl2 | RH1-Slow@20; TL2@20; StandardHyTM@20; RH1-Fast@20; HTM@20"},
    {"fig2_breakdown",
     "Figure 2 - single-thread breakdown, RB-Tree 80% mutations (substrate=sim) | write_percent | speedup_vs_tl2 | RH1-Slow@80; TL2@80; StandardHyTM@80; RH1-Fast@80; HTM@80"},
    {"fig2_rbtree_mix",
     "Figure 2 - 100K Nodes Constant RB-Tree, 20% mutations (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2"},
    {"fig2_rbtree_mix",
     "Figure 2 - 100K Nodes Constant RB-Tree, 80% mutations (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2"},
    {"fig3_hashtable",
     "10000 Elements Constant Hash Table, 20% mutations (substrate=sim) - Figure 3 left | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Mix100@1,2"},
    {"fig3_randomarray",
     "Figure 3 right - 128K Random Array, RH1-Fast speedup vs Standard HyTM, 2 threads (substrate=sim) | write_percent | speedup | len400@0,20,50,90; len200@0,20,50,90; len100@0,20,50,90; len40@0,20,50,90"},
    {"fig3_sortedlist",
     "1K Nodes Constant Sorted List, 5% mutations (substrate=sim) - Figure 3 middle | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2"},
    {"micro_barriers",
     "Microbench - per-access barrier cost of each protocol's fast path (emul) | accesses | read_ns_per_access | HTM@256; RH1-Fast@256; StandardHyTM@256; TL2@256"},
    {"micro_barriers",
     "Microbench - trace recorder overhead (emul, read path) | accesses | overhead_pct | HTM@256; RH1-Fast@256; TL2@256"},
    {"micro_htm",
     "Microbench A5 - substrate and container primitive costs | size | ns_per_call | emul_tx_read_only@16,256,4096; emul_tx_write_commit@8,64,256; emul_nontx_store@1; emul_abort_roundtrip@1; sim_tx_read_only@16,256,4096; sim_tx_write_commit@8,64,256; sim_nontx_store@1; sim_abort_roundtrip@1; clock_next_GV1@1; clock_next_GV4@1; clock_next_GV6@1; stripe_index@1; write_set_put_find@16,256; read_set_add@256; read_set_add_rereads@256; stripe_set_insert_contains@256"},
    {"mutating_tree",
     "8192-node Mutating RB-Tree (domain 16384), 20% structural mutations, all protocols (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
    {"mutating_tree",
     "Constant vs mutating RB-tree, 8192 live nodes, 20% mutations (-const overwrites in place, -mut rebalances; mut_over_const on -mut rows) | threads | total_ops | HTM-const@1,2; StandardHyTM-const@1,2; TL2-const@1,2; RH1-Fast-const@1,2; HTM-mut@1,2; StandardHyTM-mut@1,2; TL2-mut@1,2; RH1-Fast-mut@1,2"},
    {"numa",
     "Compact vs scatter placement, socket-partitioned transfers (50% remote, numa=off, substrate=sim) | threads | total_ops | TL2/compact@1,2; TL2/scatter@1,2; RH1-Fast/compact@1,2; RH1-Fast/scatter@1,2; RH1-Mix100/compact@1,2; RH1-Mix100/scatter@1,2"},
    {"numa",
     "Cross-socket placement penalty (compact_ops/scatter_ops, lower is better, numa=off) | threads | cross_socket_penalty | TL2@1,2; RH1-Fast@1,2; RH1-Mix100@1,2"},
    {"numa",
     "Cross-socket transfer-rate sweep, scatter placement (threads=2, numa=off) | remote_pct | total_ops | TL2@0,25,50,100; RH1-Fast@0,25,50,100; RH1-Mix100@0,25,50,100"},
    {"numa",
     "Numa-mode sweep: clock publishes per commit (x: 0=off 1=shard 2=shard+clock, scatter, 50% remote, threads=2) | numa_mode | clock_publishes_per_commit | TL2@0,1,2; RH1-Fast@0,1,2; RH1-Mix100@0,1,2"},
    {"numa",
     "Per-socket thread sweep, socket-local transfers (numa=off) | threads | total_ops | TL2/socket0@1,2; RH1-Fast/socket0@1,2; RH1-Mix100/socket0@1,2; TL2/socket1@1,2; RH1-Fast/socket1@1,2; RH1-Mix100/socket1@1,2"},
    {"phased",
     "Phased run (read_mostly -> write_burst -> snapshot) at 2 threads, per-phase rows (substrate=sim) | phase | phase_total_ops | HTM@0,1,2; StandardHyTM@0,1,2; TL2@0,1,2; RH1-Fast@0,1,2; RH1-Mix10@0,1,2; RH1-Mix100@0,1,2; HybridNOrec@0,1,2; PhasedTM@0,1,2"},
    {"phased",
     "Phased run, whole-schedule totals (same runs as the per-phase table) | threads | schedule_total_ops | HTM@2; StandardHyTM@2; TL2@2; RH1-Fast@2; RH1-Mix10@2; RH1-Mix100@2; HybridNOrec@2; PhasedTM@2"},
    {"queue",
     "MPMC transactional queue, capacity 4096, 1:1 producers:consumers, all protocols (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
    {"queue",
     "MPMC queue producer share sweep at 2 threads (x = % of workers producing) | producer_percent | total_ops | HTM@25,50,75; StandardHyTM@25,50,75; TL2@25,50,75; RH1-Fast@25,50,75; RH1-Mix10@25,50,75; RH1-Mix100@25,50,75; HybridNOrec@25,50,75; PhasedTM@25,50,75"},
    {"service",
     "Account-store service, open-loop rate sweep at 2 threads (Poisson arrivals, 5% audit mix, x = offered req/s) | offered_rate | achieved_per_sec | HTM@5000,20000,80000; StandardHyTM@5000,20000,80000; TL2@5000,20000,80000; RH1-Fast@5000,20000,80000; RH1-Mix10@5000,20000,80000; RH1-Mix100@5000,20000,80000; HybridNOrec@5000,20000,80000; PhasedTM@5000,20000,80000"},
    {"service",
     "Account-store service, thread sweep at 20000 req/s offered (Poisson arrivals, 5% audit mix) | threads | achieved_per_sec | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
    {"service",
     "Account-store service, audit-mix sweep at 20000 req/s, 2 threads, batch K=4 (x = % of requests auditing a shard) | audit_percent | achieved_per_sec | HTM@0,5,20; StandardHyTM@0,5,20; TL2@0,5,20; RH1-Fast@0,5,20; RH1-Mix10@0,5,20; RH1-Mix100@0,5,20; HybridNOrec@0,5,20; PhasedTM@0,5,20"},
    {"skiplist",
     "32768 Nodes Constant Skiplist, 20% mutations, all protocols (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
    {"zipfian_mix",
     "128K Zipfian Random Array, theta=0.80, len=32, 20% writes, all protocols (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
    {"zipfian_mix",
     "128K Zipfian Random Array, theta=0.99, len=32, 20% writes, all protocols (substrate=sim) | threads | total_ops | HTM@1,2; StandardHyTM@1,2; TL2@1,2; RH1-Fast@1,2; RH1-Mix10@1,2; RH1-Mix100@1,2; HybridNOrec@1,2; PhasedTM@1,2"},
};
// clang-format on

/// One table's regression-matching keys on a single line.
std::string table_shape(const report::TableData& table) {
  std::string out = table.title + " | " + table.x_name + " | " + table.primary_metric + " |";
  const char* sep = " ";
  for (const report::SeriesData& series : table.series) {
    if (series.name.rfind("rtm_", 0) == 0) continue;
    out += sep + series.name + "@";
    sep = "; ";
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      char x[32];
      std::snprintf(x, sizeof x, "%s%g", i ? "," : "", series.points[i].x);
      out += x;
    }
  }
  return out;
}

std::vector<std::string> report_shapes(const report::BenchReport& rep) {
  std::vector<std::string> shapes;
  for (const report::TableData& table : rep.tables) shapes.push_back(table_shape(table));
  return shapes;
}

void check_shapes(const char* scenario, const std::vector<std::string>& got) {
  std::vector<std::string> want;
  for (const ShapePin& pin : kExpectedShapes) {
    if (std::strcmp(pin.scenario, scenario) == 0) want.emplace_back(pin.table);
  }
  CHECK_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (got[i] == want[i]) continue;
    std::printf("    shape mismatch in %s table %zu:\n      got  %s\n      want %s\n", scenario,
                i, got[i].c_str(), want[i].c_str());
    CHECK(got[i] == want[i]);
  }
}

void test_every_scenario_runs_under_sim() {
  const bench::Options opt = tiny_options();
  std::set<std::string> ran;
  for (const bench::Scenario& s : bench::Registry::instance().sorted()) {
    std::printf("    running %s\n", s.name);
    report::BenchReport rep = s.run(opt);
    ran.insert(s.name);
    check_shapes(s.name, report_shapes(rep));
    CHECK(!rep.tables.empty());
    CHECK(!rep.substrate.empty());
    bool any_nonzero_primary = false;
    for (const report::TableData& table : rep.tables) {
      CHECK(!table.series.empty());
      bool any_point = false;
      for (const report::SeriesData& series : table.series) {
        CHECK(!series.name.empty());
        for (const report::Point& p : series.points) {
          any_point = true;
          CHECK(!p.metrics.empty());
          const double* primary = p.find(table.primary_metric);
          if (primary != nullptr && *primary != 0) any_nonzero_primary = true;
        }
      }
      CHECK(any_point);
    }
    if (!any_nonzero_primary) std::printf("    (all-zero primary metric in %s)\n", s.name);
    CHECK(any_nonzero_primary);
  }
  for (const ShapePin& pin : kExpectedShapes) CHECK(ran.count(pin.scenario) == 1);
}

/// Prints every scenario's shapes as kExpectedShapes entries.
void print_shapes() {
  for (const bench::Scenario& s : bench::Registry::instance().sorted()) {
    for (const std::string& shape : report_shapes(s.run(tiny_options()))) {
      std::printf("    {\"%s\",\n     \"%s\"},\n", s.name, shape.c_str());
    }
  }
}

}  // namespace
}  // namespace rhtm::test

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--print") == 0) {
    rhtm::test::print_shapes();
    return 0;
  }
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      {"registry_contents", rhtm::test::test_registry_contents},
      {"every_scenario_runs_under_sim", rhtm::test::test_every_scenario_runs_under_sim},
  });
}
