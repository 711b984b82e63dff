// The paper's figure experiment (§3.1) as one sweep table. Each row is a
// scenario: a constant structure, a transaction mix, the protocol series
// to compare and one table per write percentage. Every table is a
// run_figure sweep over the thread counts — calibrate on TL2, then replay
// its abort ratio into every hardware-mode series.
//
//  * fig1_rbtree — the headline: instrumenting the reads of the hardware
//    transactions (Standard HyTM) collapses the HTM advantage from ~5-6×
//    over TL2 to ~2×; RH1's uninstrumented reads preserve it.
//  * fig2_rbtree_mix — adds RH1 Mixed 10 / Mixed 100 (10% / 100% of
//    aborted fast transactions retried on the slow path). At 20% writes
//    the abort ratio is low (~5%) so the slow-path penalty is invisible; at
//    80% (~40% aborts) Mixed 100 pays a visible penalty yet still edges out
//    the best-case Standard HyTM.
//  * fig3_hashtable — short, highly distributed transactions: HTM's edge
//    over TL2 shrinks (~40%), aborts are rare (~3%), Standard HyTM stays at
//    STM level while RH1 Mixed 100 keeps the HTM benefit. The paper's
//    figure says 10K elements while §3.3's text says 1000K; the default is
//    the figure's 10K (--full switches to 1000K).
//  * fig3_sortedlist — the heavy-contention case: long scans share the
//    list prefix and aborts reach ~50% at 20 threads. HTM is ~4× TL2,
//    Standard HyTM collapses to ~1.5×, RH1 Fast keeps the speedup and the
//    Mixed variants degrade as software retries pile up.
//  * skiplist — ~2·log2 n probed keys per operation, between the hash
//    table's 2-5 reads and the sorted list's O(n) scans: the read-set-size
//    axis Alistarh et al. and Brown & Ravi find HyTM results most
//    sensitive to, swept through every protocol.
//  * zipfian_mix — skewed random-array transactions (theta 0.8 and the
//    YCSB-default 0.99): as the hot set shrinks, the fine-grained RH1 paths
//    should keep separating from Hybrid NOrec's global sequence lock.

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "registry.h"
#include "workloads/constant_hashtable.h"
#include "workloads/constant_rbtree.h"
#include "workloads/constant_skiplist.h"
#include "workloads/constant_sortedlist.h"
#include "workloads/random_array.h"
#include "workloads/zipf.h"

namespace rhtm::bench {
namespace {

enum class Structure { kRbTree, kHashTable, kSortedList, kSkipList, kZipfArray };

/// One figure scenario. `title` and the meta values may use the
/// placeholders {n} (structure size), {wp} (write percent), {theta} and
/// {sub} (substrate name).
struct FigureRow {
  const char* name;
  const char* paper_ref;
  const char* summary;
  Structure structure;
  std::size_t size;
  std::size_t full_size;                 ///< size under --full
  std::vector<unsigned> write_percents;  ///< one table each
  std::vector<double> thetas;            ///< kZipfArray only: one table per skew
  std::vector<Series> series;
  const char* title;
  std::vector<std::pair<const char*, const char*>> meta;
};

const std::vector<Series> kMixedSeries = {Series::kHtm,     Series::kStdHytm,
                                          Series::kTl2,     Series::kRh1Fast,
                                          Series::kRh1Mix10, Series::kRh1Mix100};

// clang-format off
const FigureRow kFigures[] = {
    {"fig1_rbtree", "Fig. 1",
     "100K-node constant RB-tree, 20% mutations: HTM / StdHyTM / TL2 / RH1-Fast",
     Structure::kRbTree, 100'000, 100'000, {20}, {},
     {Series::kHtm, Series::kStdHytm, Series::kTl2, Series::kRh1Fast},
     "Figure 1 - 100K Nodes Constant RB-Tree, {wp}% mutations (substrate={sub}, total ops "
     "per point)",
     {{"workload", "constant_rbtree/{n}"}, {"write_percent", "20"}}},
    {"fig2_rbtree_mix", "Fig. 2 (top)",
     "100K-node constant RB-tree at 20%/80% mutations, adds RH1-Mix10/Mix100",
     Structure::kRbTree, 100'000, 100'000, {20, 80}, {}, kMixedSeries,
     "Figure 2 - 100K Nodes Constant RB-Tree, {wp}% mutations (substrate={sub})",
     {{"workload", "constant_rbtree/{n}"}, {"write_percents", "20,80"}}},
    {"fig3_hashtable", "Fig. 3 (left)",
     "Constant hash table, 20% mutations: short distributed transactions",
     Structure::kHashTable, 10'000, 1'000'000, {20}, {},
     {Series::kHtm, Series::kStdHytm, Series::kTl2, Series::kRh1Mix100},
     "{n} Elements Constant Hash Table, {wp}% mutations (substrate={sub}) - Figure 3 left",
     {{"write_percent", "20"}, {"workload", "constant_hashtable/{n}"}}},
    {"fig3_sortedlist", "Fig. 3 (middle)",
     "1K-node constant sorted list, 5% mutations: the heavy-contention case",
     Structure::kSortedList, 1'000, 1'000, {5}, {}, kMixedSeries,
     "1K Nodes Constant Sorted List, {wp}% mutations (substrate={sub}) - Figure 3 middle",
     {{"workload", "constant_sortedlist/{n}"}, {"write_percent", "5"}}},
    {"skiplist", "extension",
     "Constant skiplist, 20% mutations, every protocol incl. NOrec/Phased",
     Structure::kSkipList, 32 * 1024, 256 * 1024, {20}, {}, all_series(),
     "{n} Nodes Constant Skiplist, {wp}% mutations, all protocols (substrate={sub})",
     {{"workload", "constant_skiplist/{n}"}, {"write_percent", "20"}}},
    {"zipfian_mix", "extension",
     "Zipfian-skewed 128K array mix (theta 0.8 / 0.99), every protocol",
     Structure::kZipfArray, 128 * 1024, 128 * 1024, {20}, {0.8, 0.99}, all_series(),
     "128K Zipfian Random Array, theta={theta}, len=32, {wp}% writes, all protocols "
     "(substrate={sub})",
     {{"workload", "random_array/{n} zipfian"}, {"tx_len", "32"}, {"write_percent", "20"}}},
};
// clang-format on

constexpr unsigned kZipfTxLen = 32;

/// Bijectively scatters hot ranks across the (power-of-two sized) array so
/// the skew measures *stripe* contention, not adjacent-rank cache sharing.
std::size_t scatter(std::size_t rank, std::size_t words) {
  return (rank * 0x9e3779b97f4a7c15ull) & (words - 1);
}

/// `text` with every placeholder replaced.
std::string fill(std::string text, std::size_t n, unsigned write_percent, double theta,
                 const char* substrate) {
  const std::pair<const char*, std::string> vars[] = {
      {"{n}", std::to_string(n)},
      {"{wp}", std::to_string(write_percent)},
      {"{theta}", std::to_string(theta).substr(0, 4)},
      {"{sub}", substrate}};
  for (const auto& [key, value] : vars) {
    for (std::size_t at; (at = text.find(key)) != std::string::npos;) {
      text.replace(at, std::strlen(key), value);
    }
  }
  return text;
}

/// One run_figure table per (theta, write percent).
template <class H, class DS>
void run_tables(const Options& opt, report::BenchReport& rep, const FigureRow& row,
                const DS& ds) {
  const std::vector<double> thetas = row.thetas.empty() ? std::vector<double>{0} : row.thetas;
  for (const double theta : thetas) {
    for (const unsigned wp : row.write_percents) {
      report::TableData& table =
          rep.add_table(fill(row.title, ds.size(), wp, theta, opt.substrate_name()));
      if constexpr (std::is_same_v<DS, RandomArray>) {
        const ZipfianGenerator zipf(ds.size(), theta);
        const auto op = [&](auto& tm, auto& ctx, Xoshiro256& rng, unsigned) {
          tm.atomically(ctx, [&](auto& tx) {
            do_not_optimize(ds.op_indexed(tx, rng, kZipfTxLen, wp, [&](Xoshiro256& r) {
              return scatter(zipf.next(r), ds.size());
            }));
          });
        };
        run_figure<H>(universe_config(opt), table, row.series, opt, op);
      } else {
        run_figure<H>(universe_config(opt), table, row.series, opt, lookup_update_op(ds, wp));
      }
    }
  }
}

template <class H>
void run_row(const Options& opt, report::BenchReport& rep, const FigureRow& row,
             std::size_t n) {
  switch (row.structure) {
    case Structure::kRbTree: return run_tables<H>(opt, rep, row, ConstantRbTree(n));
    case Structure::kHashTable: return run_tables<H>(opt, rep, row, ConstantHashTable(n));
    case Structure::kSortedList: return run_tables<H>(opt, rep, row, ConstantSortedList(n));
    case Structure::kSkipList: return run_tables<H>(opt, rep, row, ConstantSkipList(n));
    case Structure::kZipfArray: return run_tables<H>(opt, rep, row, RandomArray(n));
  }
}

template <std::size_t I>
report::BenchReport run_figure_row(const Options& opt) {
  const FigureRow& row = kFigures[I];
  report::BenchReport rep;
  rep.substrate = opt.substrate_name();
  const std::size_t n = opt.full ? row.full_size : row.size;
  for (const auto& [key, value] : row.meta) {
    rep.set_meta(key, fill(value, n, 0, 0, opt.substrate_name()));
  }
  dispatch_substrate(opt, [&]<class H>(SubstrateTag<H>) { run_row<H>(opt, rep, row, n); });
  return rep;
}

template <std::size_t... I>
bool register_figures(std::index_sequence<I...>) {
  (Registry::instance().add(
       {kFigures[I].name, kFigures[I].paper_ref, kFigures[I].summary, &run_figure_row<I>}),
   ...);
  return true;
}

const bool kFiguresRegistered =
    register_figures(std::make_index_sequence<std::size(kFigures)>{});

}  // namespace
}  // namespace rhtm::bench
