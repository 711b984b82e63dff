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
// A second pin, kExpectedMetrics, holds per table the metric names its
// points report (every name in the pin must still be reported; new ones
// may appear). It leaves out fill_point's commits_* / attempts_* /
// aborts_* keys, which a point carries only when the counter is nonzero.
// `registry_smoke_test --print` prints the current shapes and metric
// names in the tables' own syntax instead of checking them.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
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
  CHECK(scenarios.size() >= 23);
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
        "phased", "commit_path", "service", "durable", "contention"}) {
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

struct MetricPin {
  const char* scenario;
  std::size_t table;    ///< index in the scenario's report
  const char* metrics;  ///< sorted, comma-separated metric names
};

// clang-format off
const MetricPin kExpectedMetrics[] = {
    {"ablation_capacity", 0, "fast_pct,rh1_slow_pct,rh2_pct,slow_slow_pct"},
    {"ablation_clock", 0, "abort_ratio,htm_conflicts,stm_validation,total_ops"},
    {"ablation_policy", 0, "abort_ratio,fast_tries_per_op,total_ops"},
    {"ablation_readmask", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"ablation_stripes", 0, "abort_ratio,total_ops"},
    {"commit_path", 0, "capacity_abort_rate,commit_ns,rh1_slow_pct,rh2_pct,slow_slow_pct,tx_ns"},
    {"commit_path", 1, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 1, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 2, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 3, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 4, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 5, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"contention", 6, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"durable", 0, "abort_ratio,aborts,commits,fences_per_commit,log_overflowed,ops_per_sec,pfence_per_commit,psync_per_commit,pwb_per_commit,total_ops,wall_seconds,wasted_speculation_pct"},
    {"durable", 1, "abort_ratio,aborts,commits,fences_per_commit,log_overflowed,ops_per_sec,pfence_per_commit,psync_per_commit,pwb_per_commit,total_ops,wall_seconds,wasted_speculation_pct"},
    {"durable", 2, "abort_ratio,aborts,commits,fences_per_commit,log_overflowed,ops_per_sec,pfence_per_commit,psync_per_commit,pwb_per_commit,total_ops,wall_seconds,wasted_speculation_pct"},
    {"ext_hybrids", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"ext_hybrids", 1, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"fig1_rbtree", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"fig2_breakdown", 0, "aborts,commit_pct,commits,intertx_pct,private_pct,read_pct,reads,speedup_vs_tl2,write_pct,writes"},
    {"fig2_breakdown", 1, "aborts,commit_pct,commits,intertx_pct,private_pct,read_pct,reads,speedup_vs_tl2,write_pct,writes"},
    {"fig2_rbtree_mix", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"fig2_rbtree_mix", 1, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"fig3_hashtable", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"fig3_randomarray", 0, "hytm_total_ops,rh1_total_ops,speedup"},
    {"fig3_sortedlist", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"micro_barriers", 0, "read_ns_per_access,write_ns_per_access"},
    {"micro_barriers", 1, "overhead_pct,read_ns_per_access,read_ns_per_access_traced"},
    {"micro_htm", 0, "commit_rate,ns_per_call,ns_per_item"},
    {"mutating_tree", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"mutating_tree", 1, "abort_ratio,aborts,commits,mut_over_const,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"phased", 0, "abort_ratio,aborts,commits,long_op_percent,ops_per_sec,phase_seconds,phase_total_ops,total_ops,wall_seconds,wasted_speculation_pct,write_percent"},
    {"phased", 1, "abort_ratio,aborts,commits,ops_per_sec,schedule_total_ops,total_ops,wall_seconds,wasted_speculation_pct"},
    {"queue", 0, "abort_ratio,aborts,commits,ops_per_sec,queue_size_after,total_ops,wall_seconds,wasted_speculation_pct"},
    {"queue", 1, "abort_ratio,aborts,commits,ops_per_sec,queue_size_after,total_ops,wall_seconds,wasted_speculation_pct"},
    {"service", 0, "abort_ratio,aborts,achieved_per_sec,commits,completed,drop_rate,dropped,max_us,offered,offered_per_sec,p50_us,p90_us,p999_us,p99_us"},
    {"service", 1, "abort_ratio,aborts,achieved_per_sec,commits,completed,drop_rate,dropped,max_us,offered,offered_per_sec,p50_us,p90_us,p999_us,p99_us"},
    {"service", 2, "abort_ratio,aborts,achieved_per_sec,commits,completed,drop_rate,dropped,max_us,offered,offered_per_sec,p50_us,p90_us,p999_us,p99_us"},
    {"skiplist", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"zipfian_mix", 0, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
    {"zipfian_mix", 1, "abort_ratio,aborts,commits,ops_per_sec,total_ops,wall_seconds,wasted_speculation_pct"},
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

/// The sorted metric names a table's points report, minus the per-path
/// and per-cause keys fill_point sets only when nonzero.
std::set<std::string> table_metrics(const report::TableData& table) {
  std::set<std::string> names;
  for (const report::SeriesData& series : table.series) {
    for (const report::Point& p : series.points) {
      for (const report::Metric& m : p.metrics) {
        bool counter = false;
        for (const char* prefix : {"commits_", "attempts_", "aborts_"}) {
          counter = counter || m.name.rfind(prefix, 0) == 0;
        }
        if (!counter) names.insert(m.name);
      }
    }
  }
  return names;
}

/// Every pinned metric name of the scenario's tables is still reported.
void check_metrics(const char* scenario, const report::BenchReport& rep) {
  for (const MetricPin& pin : kExpectedMetrics) {
    if (std::strcmp(pin.scenario, scenario) != 0) continue;
    CHECK(pin.table < rep.tables.size());
    if (pin.table >= rep.tables.size()) continue;
    const std::set<std::string> got = table_metrics(rep.tables[pin.table]);
    for (const char* p = pin.metrics; *p != '\0';) {
      const char* comma = std::strchr(p, ',');
      const std::string name = comma != nullptr ? std::string(p, comma) : std::string(p);
      if (got.count(name) == 0) {
        std::printf("    %s table %zu no longer reports %s\n", scenario, pin.table,
                    name.c_str());
        CHECK(got.count(name) == 1);
      }
      p = comma != nullptr ? comma + 1 : p + name.size();
    }
  }
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
    check_metrics(s.name, rep);
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
  for (const MetricPin& pin : kExpectedMetrics) CHECK(ran.count(pin.scenario) == 1);
}

/// Prints every scenario's shapes and metric names as kExpectedShapes and
/// kExpectedMetrics entries.
void print_pins() {
  std::vector<std::pair<std::string, report::BenchReport>> reports;
  for (const bench::Scenario& s : bench::Registry::instance().sorted()) {
    reports.emplace_back(s.name, s.run(tiny_options()));
  }
  std::printf("// kExpectedShapes\n");
  for (const auto& [name, rep] : reports) {
    for (const std::string& shape : report_shapes(rep)) {
      std::printf("    {\"%s\",\n     \"%s\"},\n", name.c_str(), shape.c_str());
    }
  }
  std::printf("// kExpectedMetrics\n");
  for (const auto& [name, rep] : reports) {
    for (std::size_t i = 0; i < rep.tables.size(); ++i) {
      std::string joined;
      for (const std::string& m : table_metrics(rep.tables[i])) {
        joined += (joined.empty() ? "" : ",") + m;
      }
      std::printf("    {\"%s\", %zu, \"%s\"},\n", name.c_str(), i, joined.c_str());
    }
  }
}

}  // namespace
}  // namespace rhtm::test

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--print") == 0) {
    rhtm::test::print_pins();
    return 0;
  }
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      {"registry_contents", rhtm::test::test_registry_contents},
      {"every_scenario_runs_under_sim", rhtm::test::test_every_scenario_runs_under_sim},
  });
}
