// Topology layer (core/topology.h) + its consumers: cpulist parsing, fake
// sysfs discovery, single-node fallback, pin/shard geometry agreement
// (scatter placement and stripe-shard homes follow the same socket rule),
// sharded stripe-table equivalence, and the per-socket cached clock's
// lagging-replica semantics — including a multi-thread soundness run of the
// full numa=shard+clock universe.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- parsing --

void cpulist_parses() {
  std::vector<unsigned> cpus;
  CHECK(parse_cpulist("0-3,8,10-11\n", &cpus));
  CHECK(cpus == (std::vector<unsigned>{0, 1, 2, 3, 8, 10, 11}));
  CHECK(parse_cpulist("5", &cpus));
  CHECK(cpus == (std::vector<unsigned>{5}));
  CHECK(parse_cpulist("", &cpus));  // memory-only node: valid, no CPUs
  CHECK(cpus.empty());
  CHECK(parse_cpulist("  \n", &cpus));
  CHECK(cpus.empty());
  CHECK(!parse_cpulist("a-b", &cpus));
  CHECK(!parse_cpulist("3-1", &cpus));  // descending range
  CHECK(!parse_cpulist("1,", &cpus));   // dangling comma
  CHECK(!parse_cpulist("1-", &cpus));   // dangling dash
  CHECK(!parse_cpulist("1;2", &cpus));
}

void numa_mode_names_round_trip() {
  for (const NumaMode m : {NumaMode::kOff, NumaMode::kShard, NumaMode::kShardClock}) {
    NumaMode out = NumaMode::kOff;
    CHECK(parse_numa_mode(to_string(m), &out));
    CHECK(out == m);
  }
  NumaMode out;
  CHECK(!parse_numa_mode("sharded", &out));
  CHECK(!parse_numa_mode("", &out));
}

// ----------------------------------------------------------- discovery --

/// Builds a fake sysfs node tree and returns its root.
fs::path make_fake_sysfs(const std::vector<const char*>& cpulists) {
  const fs::path root = fs::temp_directory_path() / "rhtm_topology_test_nodes";
  fs::remove_all(root);
  for (std::size_t n = 0; n < cpulists.size(); ++n) {
    const fs::path dir = root / ("node" + std::to_string(n));
    fs::create_directories(dir);
    std::ofstream(dir / "cpulist") << cpulists[n];
  }
  return root;
}

void sysfs_discovery() {
  // 2 CPU sockets + one memory-only node (empty cpulist — skipped, and the
  // scan continues past it to prove numbering is not truncated by it).
  const fs::path root = make_fake_sysfs({"0-3,16-19\n", "", "4-7,20-23\n"});
  const Topology t = Topology::from_sysfs(root.string());
  CHECK(t.discovered());
  CHECK_EQ(t.socket_count(), 2u);
  CHECK_EQ(t.cpu_count(), 16u);
  CHECK_EQ(t.socket_of_cpu(0), 0);
  CHECK_EQ(t.socket_of_cpu(19), 0);
  CHECK_EQ(t.socket_of_cpu(4), 1);
  CHECK_EQ(t.socket_of_cpu(23), 1);
  CHECK_EQ(t.socket_of_cpu(8), -1);    // hole between the sockets' ranges
  CHECK_EQ(t.socket_of_cpu(999), -1);  // beyond the map
  // compact: socket 0's list first, then socket 1's.
  CHECK_EQ(t.compact_cpu(0), 0u);
  CHECK_EQ(t.compact_cpu(3), 3u);
  CHECK_EQ(t.compact_cpu(4), 16u);
  CHECK_EQ(t.compact_cpu(8), 4u);
  // scatter: round-robin across sockets first (tid % sockets picks the
  // socket), walking each socket's cpulist in order.
  CHECK_EQ(t.scatter_cpu(0), 0u);
  CHECK_EQ(t.scatter_cpu(1), 4u);
  CHECK_EQ(t.scatter_cpu(2), 1u);
  CHECK_EQ(t.scatter_cpu(3), 5u);
  fs::remove_all(root);
}

void sysfs_fallback_on_malformed() {
  const fs::path root = make_fake_sysfs({"0-1\n", "not a cpulist\n"});
  const Topology t = Topology::from_sysfs(root.string());
  CHECK(!t.discovered());  // any parse failure: whole discovery falls back
  CHECK_EQ(t.socket_count(), 1u);
  fs::remove_all(root);

  const Topology missing = Topology::from_sysfs("/nonexistent/rhtm/nodes");
  CHECK(!missing.discovered());
  CHECK_EQ(missing.socket_count(), 1u);
  CHECK(missing.cpu_count() >= 1u);
}

void single_node_fallback() {
  const Topology t = Topology::single_node(8);
  CHECK(!t.discovered());
  CHECK_EQ(t.socket_count(), 1u);
  CHECK_EQ(t.cpu_count(), 8u);
  CHECK_EQ(t.socket_of_cpu(7), 0);
  for (unsigned tid = 0; tid < 8; ++tid) {
    CHECK_EQ(t.compact_cpu(tid), tid);
    CHECK_EQ(t.scatter_cpu(tid), tid);  // one socket: scatter degenerates
  }
  CHECK_EQ(Topology::single_node(0).cpu_count(), 1u);  // never empty
}

// ---------------------------------------------- pin/shard geometry rule --

void pin_and_shard_geometry_agree() {
  const Topology topo = Topology::fake({{0, 1, 2, 3}, {4, 5, 6, 7}});
  StripeConfig sc;
  sc.log2_count = 8;
  sc.shards = topo.socket_count();
  sc.topology = &topo;
  StripeTable st(sc);
  CHECK_EQ(st.shard_count(), 2u);
  // The rule both sides follow: thread t scatter-lands on socket
  // t % socket_count, and shard s is homed on socket s % socket_count —
  // so thread t and shard (t % shard_count) share a home socket.
  for (unsigned tid = 0; tid < 8; ++tid) {
    const int pin_socket = topo.socket_of_cpu(topo.scatter_cpu(tid));
    CHECK_EQ(static_cast<unsigned>(pin_socket),
             st.home_socket_of_shard(tid % st.shard_count()));
  }
  // Shard id lives in the HIGH bits of the unchanged global index: plain
  // integer order on stripe indices is (shard, local) lexicographic order,
  // which is what keeps the sorted TL2 lock-acquire canonical across shards.
  unsigned last_shard = 0;
  for (std::size_t i = 0; i < st.count(); ++i) {
    CHECK(st.shard_of(i) >= last_shard);
    last_shard = st.shard_of(i);
  }
  CHECK_EQ(st.shard_of(st.count() - 1), st.shard_count() - 1);
}

void sharded_table_matches_flat() {
  StripeConfig flat_cfg;
  flat_cfg.log2_count = 10;
  StripeTable flat(flat_cfg);
  StripeConfig sharded_cfg = flat_cfg;
  sharded_cfg.shards = 4;
  StripeTable sharded(sharded_cfg);
  CHECK_EQ(flat.count(), sharded.count());
  // index_of is shard-independent (the hash is over the unchanged global
  // index space) and every lock/mask operation behaves identically.
  int x = 0;
  for (int off = 0; off < 64; ++off) {
    const void* addr = reinterpret_cast<const char*>(&x) + 1024 * off;
    CHECK_EQ(flat.index_of(addr), sharded.index_of(addr));
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{255}, std::size_t{256},
                              std::size_t{777}, flat.count() - 1}) {
    CHECK(sharded.try_lock(i));
    CHECK(!sharded.try_lock(i));
    sharded.unlock_to(i, 7);
    CHECK_EQ(StripeTable::version_of(sharded.word(i).word.load()), 7u);
    sharded.publish_read(i);
    CHECK_EQ(sharded.readers(i), 1u);
    sharded.unpublish_read(i);
    CHECK_EQ(sharded.readers(i), 0u);
  }
  // Distinct global indices map to distinct cells even across shard seams.
  CHECK(&sharded.word(255) != &sharded.word(256));
  CHECK(&sharded.read_mask(0) != &sharded.read_mask(sharded.count() - 1));
}

void first_touch_construction_multi_socket() {
  // Only checks that pinned first-touch construction completes and yields a
  // fully usable table (CI hosts have one node; the pin calls best-effort).
  const Topology topo = Topology::fake({{0}, {1}});
  StripeConfig sc;
  sc.log2_count = 6;
  sc.shards = 2;
  sc.topology = &topo;
  StripeTable st(sc);
  for (std::size_t i = 0; i < st.count(); ++i) {
    CHECK_EQ(st.word(i).word.load(), 0u);
    CHECK_EQ(st.readers(i), 0u);
  }
}

// ------------------------------------------------------- cached clock --

void cached_clock_lagging_replicas() {
  const Topology topo = Topology::fake({{0, 1}, {2, 3}});
  GlobalVersionClock clock(GvMode::kGv1, &topo);
  CHECK(clock.cached());
  CHECK(!clock.hw_writes_clock());

  set_thread_socket_override(0);
  CHECK_EQ(clock.read(), 0u);
  CHECK_EQ(clock.next(), 1u);  // global + 1, no write (GV6-style)
  CHECK_EQ(clock.next(), 1u);
  CHECK_EQ(clock.read(), 0u);

  // on_abort is the only global write: bumps global and lifts OUR cache.
  clock.on_abort();
  CHECK_EQ(clock.read(), 1u);
  CHECK_EQ(clock.global_publishes(), 1u);

  // The other socket's replica lags until someone there refreshes it.
  set_thread_socket_override(1);
  CHECK_EQ(clock.read(), 0u);
  CHECK_EQ(clock.next(), 2u);  // next() always reads the GLOBAL cell
  clock.publish_home();
  CHECK_EQ(clock.read(), 1u);
  CHECK_EQ(clock.local_publishes(), 1u);

  // Lagging-replica invariant: no cache ever exceeds the global cell.
  const TmWord global = clock.cell().word.load(std::memory_order_acquire);
  for (const int s : {0, 1}) {
    set_thread_socket_override(s);
    CHECK(clock.read() <= global);
  }
  // note_hw_commit in cached mode refreshes the home cache, no global write.
  clock.note_hw_commit();
  CHECK_EQ(clock.global_publishes(), 1u);
  CHECK_EQ(clock.local_publishes(), 2u);
  set_thread_socket_override(-1);
}

void plain_clock_unchanged_by_counters() {
  // numa=off constructions keep the historical sequences bit-for-bit.
  GlobalVersionClock g1(GvMode::kGv1);
  CHECK(!g1.cached());
  CHECK(g1.hw_writes_clock());
  CHECK_EQ(g1.next(), 1u);
  CHECK_EQ(g1.next(), 2u);
  CHECK_EQ(g1.read(), 2u);
  CHECK_EQ(g1.global_publishes(), 2u);
  GlobalVersionClock g6(GvMode::kGv6);
  CHECK(!g6.hw_writes_clock());
  CHECK_EQ(g6.next(), 1u);
  CHECK_EQ(g6.read(), 0u);
  g6.on_abort();
  CHECK_EQ(g6.read(), 1u);
}

/// numa=off replay pin: a universe built with numa off and the GV1 clock
/// makes exactly the historical clock/lock decisions — GV1 advances once
/// per software write-commit, and the stripe hash is the unchanged
/// golden-ratio formula over the unchanged index space.
void off_mode_bit_identical_decisions() {
  UniverseConfig cfg;
  CHECK(cfg.numa == NumaMode::kOff);
  cfg.gv_mode = GvMode::kGv1;
  TmUniverse<HtmSim> u(cfg);
  CHECK_EQ(u.stripes().shard_count(), 1u);
  CHECK(!u.clock().cached());
  int probe = 0;
  for (int off = 0; off < 32; ++off) {
    const void* addr = reinterpret_cast<const char*>(&probe) + 512 * off;
    const auto granule = reinterpret_cast<std::uintptr_t>(addr) >>
                         u.stripes().config().granularity_log2;
    const std::size_t expect =
        (static_cast<std::uint64_t>(granule) * 0x9e3779b97f4a7c15ull >> 32) &
        (u.stripes().count() - 1);
    CHECK_EQ(u.stripes().index_of(addr), expect);
  }
  Tl2<HtmSim> tl2(u);
  Tl2<HtmSim>::ThreadCtx ctx(tl2);
  std::vector<TmCell> cells(8);
  for (int i = 0; i < 100; ++i) {
    tl2.atomically(ctx, [&](auto& tx) {
      const TmWord v = tx.load(cells[i % 8]);
      tx.store(cells[i % 8], v + 1);
    });
  }
  // GV1, single thread, no aborts: one clock increment per write commit.
  CHECK_EQ(ctx.stats.commits, 100u);
  CHECK_EQ(ctx.stats.aborts, 0u);
  CHECK_EQ(u.clock().read(), 100u);
}

/// Full-universe soundness under numa=shard+clock: concurrent transfers
/// over a conserved bank, workers split across the two fake sockets. The
/// lagging replicas must never admit a torn snapshot — conservation holds
/// at every audit and at the end.
void shard_clock_bank_conservation() {
  const Topology topo = Topology::fake({{0, 1}, {2, 3}});
  UniverseConfig cfg;
  cfg.numa = NumaMode::kShardClock;
  cfg.topology = &topo;
  TmUniverse<HtmSim> u(cfg);
  CHECK_EQ(u.stripes().shard_count(), 2u);
  CHECK(u.clock().cached());

  constexpr unsigned kCells = 64;
  constexpr TmWord kInitial = 1000;
  std::vector<TmCell> bank(kCells);
  {
    Tl2<HtmSim> tl2(u);
    Tl2<HtmSim>::ThreadCtx ctx(tl2);
    tl2.atomically(ctx, [&](auto& tx) {
      for (auto& c : bank) tx.store(c, kInitial);
    });
  }
  HybridTm<HtmSim> tm(u);
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < 4; ++tid) {
    workers.emplace_back([&, tid] {
      set_thread_socket_override(static_cast<int>(tid % topo.socket_count()));
      HybridTm<HtmSim>::ThreadCtx ctx(tm);
      Xoshiro256 rng(0x1234 + tid);
      for (int i = 0; i < 4000; ++i) {
        const unsigned a = rng.next_u64() % kCells;
        const unsigned b = rng.next_u64() % kCells;
        if (i % 64 == 0) {
          TmWord sum = 0;
          tm.atomically(ctx, [&](auto& tx) {
            sum = 0;
            for (auto& c : bank) sum += tx.load(c);
          });
          if (sum != kCells * kInitial) ok = false;
        } else {
          tm.atomically(ctx, [&](auto& tx) {
            const TmWord va = tx.load(bank[a]);
            if (va > 0) {
              tx.store(bank[a], va - 1);
              tx.store(bank[b], tx.load(bank[b]) + 1);
            }
          });
        }
      }
      set_thread_socket_override(-1);
    });
  }
  for (auto& w : workers) w.join();
  CHECK(ok.load());
  TmWord total = 0;
  Tl2<HtmSim> tl2(u);
  Tl2<HtmSim>::ThreadCtx ctx(tl2);
  tl2.atomically(ctx, [&](auto& tx) {
    total = 0;
    for (auto& c : bank) total += tx.load(c);
  });
  CHECK_EQ(total, kCells * kInitial);
  // The whole point of the mode: some commits happened without any global
  // clock write (publishes ≪ commits would hold in a real run; here we just
  // require the counters to be consistent and the caches to lag the global).
  const TmWord global = u.clock().cell().word.load(std::memory_order_acquire);
  for (unsigned s = 0; s < topo.socket_count(); ++s) {
    set_thread_socket_override(static_cast<int>(s));
    CHECK(u.clock().read() <= global);
  }
  set_thread_socket_override(-1);
}

void universe_numa_wiring() {
  const Topology topo = Topology::fake({{0}, {1}, {2}});
  UniverseConfig cfg;
  cfg.numa = NumaMode::kShard;
  cfg.topology = &topo;
  TmUniverse<HtmSim> u(cfg);
  CHECK(u.numa() == NumaMode::kShard);
  CHECK_EQ(u.topology().socket_count(), 3u);
  CHECK_EQ(u.stripes().shard_count(), 4u);  // rounded up to a power of two
  CHECK(!u.clock().cached());               // shard-only: plain clock
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"cpulist_parses", rhtm::cpulist_parses},
      TestCase{"numa_mode_names_round_trip", rhtm::numa_mode_names_round_trip},
      TestCase{"sysfs_discovery", rhtm::sysfs_discovery},
      TestCase{"sysfs_fallback_on_malformed", rhtm::sysfs_fallback_on_malformed},
      TestCase{"single_node_fallback", rhtm::single_node_fallback},
      TestCase{"pin_and_shard_geometry_agree", rhtm::pin_and_shard_geometry_agree},
      TestCase{"sharded_table_matches_flat", rhtm::sharded_table_matches_flat},
      TestCase{"first_touch_construction_multi_socket",
               rhtm::first_touch_construction_multi_socket},
      TestCase{"cached_clock_lagging_replicas", rhtm::cached_clock_lagging_replicas},
      TestCase{"plain_clock_unchanged_by_counters", rhtm::plain_clock_unchanged_by_counters},
      TestCase{"off_mode_bit_identical_decisions", rhtm::off_mode_bit_identical_decisions},
      TestCase{"shard_clock_bank_conservation", rhtm::shard_clock_bank_conservation},
      TestCase{"universe_numa_wiring", rhtm::universe_numa_wiring},
  });
}
