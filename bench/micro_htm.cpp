// Microbenchmarks (A5): primitive costs of the simulated and emulated HTM
// substrates, the clock, the stripe mapping and the software-path
// containers. Deadline-driven timing loops (bench_common.h ns_per_op) — no
// external benchmark library.

#include "registry.h"
#include "core/indexed_set.h"
#include "stm/read_set.h"
#include "stm/write_set.h"

namespace rhtm::bench {
namespace {

/// Adds one (series, size) point with the nanoseconds per call of `f` and,
/// when `items_per_call` > 0, the derived per-item cost. Returns the point
/// so callers can attach extra metrics (e.g. commit_rate).
template <class F>
report::Point& time_primitive(report::TableData& table, const Options& opt,
                              const std::string& name, double size, double items_per_call,
                              F&& f) {
  report::SeriesData* series = nullptr;
  for (report::SeriesData& s : table.series) {
    if (s.name == name) series = &s;
  }
  if (series == nullptr) series = &table.add_series(name);
  const double ns = ns_per_op(opt.seconds, f);
  report::Point& p = series->add_point(size);
  p.set("ns_per_call", ns);
  if (items_per_call > 0) p.set("ns_per_item", ns / items_per_call);
  return p;
}

/// The per-substrate primitive sweep, identical for every substrate the
/// binary can run: transactional read-only / write+commit costs, the
/// non-transactional store, and the abort round trip. Series names come
/// from the substrate traits, so new substrates show up automatically.
template <class H>
void substrate_primitives(report::TableData& table, const Options& opt) {
  const std::string prefix = SubstrateTraits<H>::kName;
  // The transactional sections also record the commit rate: on real
  // hardware big footprints abort on genuine capacity well before the
  // configured budget, and the per-item cost is only a *load* cost when
  // commit_rate is ~1 (otherwise it prices the begin/abort round trips).
  const auto timed_tx = [&](const char* suffix, std::initializer_list<std::size_t> sizes,
                            auto&& tx_body) {
    H htm;
    typename H::Tx tx(htm);
    for (const std::size_t n : sizes) {
      std::vector<TmCell> cells(n);
      std::uint64_t calls = 0;
      std::uint64_t commits = 0;
      report::Point& p =
          time_primitive(table, opt, prefix + suffix, static_cast<double>(n),
                         static_cast<double>(n), [&] {
                           ++calls;
                           const auto outcome = htm.execute(
                               tx, [&](typename H::Tx& t) { tx_body(t, cells); });
                           if (outcome.ok()) ++commits;
                         });
      p.set("commit_rate", calls > 0 ? static_cast<double>(commits) /
                                           static_cast<double>(calls) : 0.0);
    }
  };
  timed_tx("_tx_read_only", {16ul, 256ul, 4096ul},
           [](typename H::Tx& t, std::vector<TmCell>& cells) {
             TmWord sum = 0;
             for (auto& c : cells) sum += t.load(c);
             do_not_optimize(sum);
           });
  timed_tx("_tx_write_commit", {8ul, 64ul, 256ul},
           [](typename H::Tx& t, std::vector<TmCell>& cells) {
             for (auto& c : cells) t.store(c, 1);
           });
  {  // Non-transactional store (through the publication lock where one exists).
    H htm;
    TmCell cell;
    TmWord v = 0;
    time_primitive(table, opt, prefix + "_nontx_store", 1, 0,
                   [&] { htm.nontx_store(cell, ++v); });
  }
  {  // Explicit-abort round trip.
    H htm;
    typename H::Tx tx(htm);
    TmCell cell;
    time_primitive(table, opt, prefix + "_abort_roundtrip", 1, 0, [&] {
      const auto outcome = htm.execute(tx, [&](typename H::Tx& t) {
        t.store(cell, 1);
        t.abort_explicit();
      });
      do_not_optimize(outcome);
    });
  }
}

}  // namespace

RHTM_SCENARIO(micro_htm, "— (A5)",
              "substrate/clock/stripe/read-set/write-set primitive costs") {
  report::BenchReport rep;
  rep.substrate = kMixedSubstrateName;
  report::TableData& table =
      rep.add_table("Microbench A5 - substrate and container primitive costs",
                    report::TableStyle::kWide, "size", "ns_per_call");

  for_each_available_substrate(
      [&]<class H>(SubstrateTag<H>) { substrate_primitives<H>(table, opt); });
  for (const GvMode mode : {GvMode::kGv1, GvMode::kGv4, GvMode::kGv6}) {
    GlobalVersionClock clock(mode);
    time_primitive(table, opt, std::string("clock_next_") + to_string(mode), 1, 0,
                   [&] { do_not_optimize(clock.next()); });
  }
  {  // Address -> stripe index mapping.
    StripeTable stripe_table;
    std::uint64_t data[1024];
    std::size_t i = 0;
    time_primitive(table, opt, "stripe_index", 1, 0,
                   [&] { do_not_optimize(stripe_table.index_of(&data[i++ & 1023])); });
  }
  for (const std::size_t n : {16ul, 256ul}) {  // write-set insert + lookup
    WriteSet ws;
    std::vector<TmCell> cells(n);
    time_primitive(table, opt, "write_set_put_find", static_cast<double>(n),
                   static_cast<double>(2 * n), [&] {
                     ws.clear();
                     for (std::size_t i = 0; i < n; ++i) {
                       ws.put(cells[i], i, static_cast<std::uint32_t>(i));
                     }
                     for (std::size_t i = 0; i < n; ++i) do_not_optimize(ws.find(cells[i]));
                   });
  }
  {  // read-set append (exact-dedup path: every add probes the stripe set)
    ReadSet rs;
    time_primitive(table, opt, "read_set_add", 256, 256, [&] {
      rs.clear();
      for (std::uint32_t i = 0; i < 256; ++i) rs.add(i);
    });
  }
  {  // read-set append, duplicate-heavy (zipfian shape: re-reads are free)
    ReadSet rs;
    time_primitive(table, opt, "read_set_add_rereads", 256, 256, [&] {
      rs.clear();
      for (std::uint32_t i = 0; i < 256; ++i) rs.add((i * 7) & 15);
    });
  }
  {  // stripe-set insert + contains (the commit pipeline's dedup primitive)
    StripeSet ss;
    time_primitive(table, opt, "stripe_set_insert_contains", 256,
                   static_cast<double>(2 * 256), [&] {
                     ss.clear();
                     for (std::uint32_t i = 0; i < 256; ++i) ss.insert(i * 7);
                     for (std::uint32_t i = 0; i < 256; ++i) {
                       do_not_optimize(ss.contains(i * 7));
                     }
                   });
  }
  return rep;
}

}  // namespace rhtm::bench
