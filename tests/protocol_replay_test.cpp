// Golden replay of every protocol's decision stream.
//
// One thread on the simulated substrate, fixed seeds, 30% abort injection
// and a tiny hardware budget. The budget is small enough that long scans
// overflow the RH1 fast path (RH1-slow commits), scattered reads overflow
// the reduced commit (RH2), and wide write sets overflow every hardware
// commit (slow-slow). Every protocol and every bench series configuration
// runs the same pre-drawn transaction stream under cm=fixed and
// cm=adaptive, with durability off and on.
//
// Per case the test fingerprints what the run decided: attempts and
// commits per path, aborts per cause, persist fences, clock publishes, a
// hash of the trace's (kind, payload) sequence and a hash of the final
// memory. Two tables: kExpected runs the GV1 clock and was captured from
// the code as it stood before the protocols shared one attempt loop;
// kExpectedDefaultClock runs the universe's default clock (GV6 stamps with
// read-version extension). A refactor must reproduce both exactly.
//
// `protocol_replay_test --print` prints the current fingerprints of both
// tables in their own syntax instead of checking them.

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "test_common.h"

namespace rhtm::test {
namespace {

constexpr std::size_t kPaths = static_cast<std::size_t>(ExecPath::kCount);
constexpr std::size_t kCauses = static_cast<std::size_t>(AbortCause::kCount);
constexpr std::size_t kCells = 512;
constexpr int kTxPerCase = 300;

struct Fingerprint {
  std::array<std::uint64_t, kPaths> attempts{};
  std::array<std::uint64_t, kPaths> commits{};
  std::array<std::uint64_t, kCauses> aborts{};
  std::array<std::uint64_t, 3> fences{};  ///< pwb, pfence, psync
  std::uint64_t global_publishes = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t memory_hash = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct Expected {
  const char* name;
  Fingerprint fp;
};

/// 64-byte blocks keep the cells' 32-byte stripe granules, and therefore
/// every distinct-stripe count, independent of where the heap puts them.
struct alignas(64) Block {
  TmCell c[8];
};

/// One pre-drawn transaction: reads, then writes of (sum of reads + k).
struct Op {
  std::vector<std::uint32_t> reads;
  std::vector<std::uint32_t> writes;
};

std::vector<Op> make_ops(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops(kTxPerCase);
  for (Op& op : ops) {
    const unsigned shape = static_cast<unsigned>(rng.below(100));
    const auto any = [&] { return static_cast<std::uint32_t>(rng.below(kCells)); };
    if (shape < 40) {  // small: fits every hardware path
      for (unsigned i = 0, n = 1 + static_cast<unsigned>(rng.below(4)); i < n; ++i) {
        op.reads.push_back(any());
      }
      for (unsigned i = 0, n = 1 + static_cast<unsigned>(rng.below(2)); i < n; ++i) {
        op.writes.push_back(any());
      }
    } else if (shape < 60) {  // contiguous scan: overflows the fast path only
      const unsigned n = 12 + static_cast<unsigned>(rng.below(17));
      const std::uint32_t start = static_cast<std::uint32_t>(rng.below(kCells - n));
      for (unsigned i = 0; i < n; ++i) op.reads.push_back(start + i);
      op.writes.push_back(any());
    } else if (shape < 80) {  // scattered granules: overflows the reduced commit
      for (unsigned i = 0, n = 12 + static_cast<unsigned>(rng.below(5)); i < n; ++i) {
        op.reads.push_back(static_cast<std::uint32_t>(rng.below(kCells / 4)) * 4);
      }
      for (unsigned i = 0, n = 1 + static_cast<unsigned>(rng.below(2)); i < n; ++i) {
        op.writes.push_back(any());
      }
    } else if (shape < 95) {  // wide writes: overflow every hardware commit
      op.reads.push_back(any());
      op.reads.push_back(any());
      for (unsigned i = 0, n = 5 + static_cast<unsigned>(rng.below(4)); i < n; ++i) {
        op.writes.push_back(any());
      }
    } else {  // read-only scan
      const std::uint32_t start = static_cast<std::uint32_t>(rng.below(kCells - 8));
      for (unsigned i = 0; i < 8; ++i) op.reads.push_back(start + i);
    }
  }
  return ops;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Drives the op stream through `tm` on one thread and fingerprints it.
template <class Tm>
Fingerprint replay(Tm& tm, TmUniverse<HtmSim>& u, trace::Tracer& tracer,
                   std::vector<Block>& mem, const std::vector<Op>& ops) {
  const auto cell = [&](std::uint32_t i) -> TmCell& { return mem[i / 8].c[i % 8]; };
  Fingerprint fp;
  {
    typename Tm::ThreadCtx ctx(tm);
    for (const Op& op : ops) {
      tm.atomically(ctx, [&](auto& h) {
        TmWord sum = 0;
        for (const std::uint32_t r : op.reads) sum += h.load(cell(r));
        TmWord k = 1;
        for (const std::uint32_t w : op.writes) h.store(cell(w), sum + k++);
      });
    }
    for (std::size_t p = 0; p < kPaths; ++p) {
      fp.attempts[p] = ctx.stats.attempts_by_path[p];
      fp.commits[p] = ctx.stats.commits_by_path[p];
    }
    for (std::size_t c = 0; c < kCauses; ++c) fp.aborts[c] = ctx.stats.aborts_by_cause[c];
  }
  if (u.durable()) {
    const FenceCounts f = u.pmem().fence_counts();
    fp.fences = {f.pwb, f.pfence, f.psync};
  }
  fp.global_publishes = u.clock().global_publishes();
  CHECK_EQ(tracer.total_dropped(), 0u);
  fp.trace_hash = 0xcbf29ce484222325ull;
  for (const trace::Event& e : tracer.merged_events()) {
    fp.trace_hash = fnv(fp.trace_hash, (std::uint64_t{e.kind} << 8) | e.a);
  }
  fp.memory_hash = 0xcbf29ce484222325ull;
  for (std::uint32_t i = 0; i < kCells; ++i) {
    fp.memory_hash = fnv(fp.memory_hash, cell(i).unsafe_load());
  }
  return fp;
}

constexpr std::uint32_t kInjectBp = 3000;

/// Protocol configurations beyond the bench series.
enum class Extra { kRh1ForceSlow, kRh1ForceRh2, kStdHytmTl2Fallback, kNorecSoftwareOnly };

const char* to_string(Extra e) {
  switch (e) {
    case Extra::kRh1ForceSlow: return "RH1-ForceSlow";
    case Extra::kRh1ForceRh2: return "RH1-ForceRH2";
    case Extra::kStdHytmTl2Fallback: return "StandardHyTM-TL2";
    case Extra::kNorecSoftwareOnly: return "HybridNOrec-SW";
  }
  return "?";
}

template <class Fn>
void with_extra_tm(TmUniverse<HtmSim>& u, Extra e, Fn&& fn) {
  switch (e) {
    case Extra::kRh1ForceSlow:
    case Extra::kRh1ForceRh2: {
      HybridTm<HtmSim>::Config cfg;
      cfg.inject_abort_bp = kInjectBp;
      cfg.force_slow_path = e == Extra::kRh1ForceSlow;
      cfg.force_rh2 = e == Extra::kRh1ForceRh2;
      HybridTm<HtmSim> tm(u, cfg);
      fn(tm);
      return;
    }
    case Extra::kStdHytmTl2Fallback: {
      StandardHytm<HtmSim>::Config cfg;
      cfg.inject_abort_bp = kInjectBp;
      StandardHytm<HtmSim> tm(u, cfg);
      fn(tm);
      return;
    }
    case Extra::kNorecSoftwareOnly: {
      HybridNorec<HtmSim>::Config cfg;
      cfg.max_hw_attempts = 0;
      HybridNorec<HtmSim> tm(u, cfg);
      fn(tm);
      return;
    }
  }
}

struct Run {
  std::string name;
  Fingerprint fp;
};

std::vector<Run> run_all_cases(GvMode clock) {
  detail::reset_ctx_seeds();  // ThreadCtx RNGs as in a fresh process (RHTM_TEST_REPEAT)
  std::vector<Run> runs;
  std::uint64_t case_seed = 1;
  for (const CmPolicy policy : {CmPolicy::kFixed, CmPolicy::kAdaptive}) {
    for (const bool durable : {false, true}) {
      const auto one = [&](const std::string& label, auto&& make) {
        trace::TracerConfig tcfg;
        tcfg.ring_capacity = std::size_t{1} << 16;
        trace::Tracer tracer(tcfg);
        UniverseConfig ucfg;
        ucfg.htm.max_read_set = 14;
        ucfg.htm.max_write_set = 8;
        ucfg.gv_mode = clock;
        ucfg.cm.policy = policy;
        ucfg.durable = durable;
        ucfg.tracer = &tracer;
        TmUniverse<HtmSim> u(ucfg);
        std::vector<Block> mem(kCells / 8);
        const std::vector<Op> ops = make_ops(case_seed++);
        Fingerprint fp;
        make(u, [&](auto& tm) { fp = replay(tm, u, tracer, mem, ops); });
        runs.push_back({label + "/" + to_string(policy) + (durable ? "/durable" : ""), fp});
      };
      for (const bench::Series s :
           {bench::Series::kHtm, bench::Series::kStdHytm, bench::Series::kTl2,
            bench::Series::kRh1Fast, bench::Series::kRh1Mix10, bench::Series::kRh1Mix100,
            bench::Series::kHybridNorec, bench::Series::kPhasedTm, bench::Series::kTatas}) {
        one(bench::to_string(s), [&](TmUniverse<HtmSim>& u, auto&& fn) {
          bench::with_series_tm(u, s, kInjectBp, [&](auto& tm) {
            fn(tm);
            return 0;
          });
        });
      }
      for (const Extra e : {Extra::kRh1ForceSlow, Extra::kRh1ForceRh2,
                            Extra::kStdHytmTl2Fallback, Extra::kNorecSoftwareOnly}) {
        one(to_string(e), [&](TmUniverse<HtmSim>& u, auto&& fn) { with_extra_tm(u, e, fn); });
      }
    }
  }
  return runs;
}

// clang-format off
const Expected kExpected[] = {
    {"HTM/fixed", {{635,0,0,0,0,0}, {300,0,0,0,0,0}, {0,308,0,104,0,0}, {0,0,0},
      0, 0xd41a07504e096d50ull, 0xf20fc3c07ba9ad28ull}},
    {"StandardHyTM/fixed", {{527,0,0,0,0,0}, {300,0,0,0,0,0}, {0,318,0,68,0,0}, {0,0,0},
      121, 0xaa8fa447058fe0c8ull, 0xe7357aa45182dfafull}},
    {"TL2/fixed", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      285, 0xb69c601043fc7e55ull, 0x66bc091771595149ull}},
    {"RH1-Fast/fixed", {{0,510,139,94,0,0}, {0,161,45,54,40,0}, {0,412,0,71,0,0}, {0,0,0},
      280, 0x968939d5e6013236ull, 0xb1d8e386f7d35dd8ull}},
    {"RH1-Mix10/fixed", {{0,511,178,111,0,0}, {0,122,67,62,49,0}, {0,489,0,60,0,0}, {0,0,0},
      288, 0x886928fa00a9c0c2ull, 0xda0c18f014341845ull}},
    {"RH1-Mix100/fixed", {{0,300,199,102,0,0}, {0,101,97,61,41,0}, {0,300,0,42,0,0}, {0,0,0},
      278, 0x7ffadda3396821afull, 0x83ea891ce9bf0dfcull}},
    {"HybridNOrec/fixed", {{496,0,0,0,0,88}, {212,0,0,0,0,88}, {0,176,0,108,0,0}, {0,0,0},
      0, 0x3709cfb292dcf8f5ull, 0xe9087ce7e223c54bull}},
    {"PhasedTM/fixed", {{453,0,0,0,0,84}, {216,0,0,0,0,84}, {0,168,0,69,0,0}, {0,0,0},
      84, 0xf125dec09aca9399ull, 0xbd2fc309b82e2ad7ull}},
    {"TATAS-Elide/fixed", {{488,0,0,0,0,0}, {300,0,0,0,0,0}, {0,154,0,111,0,0}, {0,0,0},
      0, 0xc854aff203704370ull, 0x91ff7ecfd7e1d786ull}},
    {"RH1-ForceSlow/fixed", {{0,0,300,95,0,0}, {0,0,205,51,44,0}, {0,139,0,0,0,0}, {0,0,0},
      287, 0xe4143bb1d368f64aull, 0x55a149a786e873bdull}},
    {"RH1-ForceRH2/fixed", {{0,0,0,300,0,0}, {0,0,0,264,36,0}, {0,36,0,0,0,0}, {0,0,0},
      294, 0xa55b591621771219ull, 0xfebe7cc67ba57654ull}},
    {"StandardHyTM-TL2/fixed", {{545,0,0,0,0,160}, {140,0,0,0,0,160}, {0,320,0,85,0,0}, {0,0,0},
      280, 0xa35d87a72452aea9ull, 0xda96ac4f86347bf6ull}},
    {"HybridNOrec-SW/fixed", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      0, 0xb69c601043fc7e55ull, 0x3c8365f579c2b270ull}},
    {"HTM/fixed/durable", {{601,0,0,0,0,0}, {300,0,0,0,0,0}, {0,284,0,88,0,0}, {0,0,0},
      0, 0xa86fdb72fc5c94b4ull, 0x9ee766461e110894ull}},
    {"StandardHyTM/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1932,568,284},
      284, 0x9841f727122e8895ull, 0x5a1176a8d5b3d26dull}},
    {"TL2/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1798,574,287},
      287, 0x3f37d7fc2a453f22ull, 0xf652efafc0fcd811ull}},
    {"RH1-Fast/fixed/durable", {{0,536,179,109,0,0}, {0,121,70,63,46,0}, {0,513,0,57,0,0}, {1774,564,282},
      282, 0x4be5419542c90aa1ull, 0xfa4ebd315dae7d72ull}},
    {"RH1-Mix10/fixed/durable", {{0,495,164,104,0,0}, {0,136,60,57,47,0}, {0,455,0,55,0,0}, {1850,570,285},
      285, 0xaca568756a6445f4ull, 0x05b71bb926b77d9dull}},
    {"RH1-Mix100/fixed/durable", {{0,300,188,100,0,0}, {0,112,88,48,52,0}, {0,308,0,32,0,0}, {1926,570,285},
      285, 0x458999e943063746ull, 0x2f301c24031e40aeull}},
    {"HybridNOrec/fixed/durable", {{482,0,0,0,0,96}, {204,0,0,0,0,96}, {0,192,0,86,0,0}, {1756,578,289},
      0, 0xbd878d262c9d9fa6ull, 0xf580912cb1401d04ull}},
    {"PhasedTM/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1770,576,288},
      288, 0x2fc7a69010c2be2dull, 0x200e848364cff43dull}},
    {"TATAS-Elide/fixed/durable", {{484,0,0,0,0,0}, {300,0,0,0,0,0}, {0,144,0,112,0,0}, {0,0,0},
      0, 0x980a73a3c5444d89ull, 0xbf916d5fd5107e9aull}},
    {"RH1-ForceSlow/fixed/durable", {{0,0,300,92,0,0}, {0,0,208,53,39,0}, {0,131,0,0,0,0}, {1740,570,285},
      285, 0x2071924bb11ac17dull, 0x6d82d92355b6d5fcull}},
    {"RH1-ForceRH2/fixed/durable", {{0,0,0,300,0,0}, {0,0,0,259,41,0}, {0,41,0,0,0,0}, {1812,576,288},
      288, 0x732882dc0d83440eull, 0x153f559375704b34ull}},
    {"StandardHyTM-TL2/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1782,570,285},
      285, 0x7d9116399becf2b6ull, 0xf135ba17f0ab3794ull}},
    {"HybridNOrec-SW/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1778,580,290},
      0, 0x6cfb8595841853fdull, 0xfacd483d0247715cull}},
    {"HTM/adaptive", {{48,0,0,0,0,0}, {300,0,0,0,0,0}, {0,21,0,11,0,0}, {0,0,0},
      0, 0xf920f84e537d68ffull, 0x9bac0b17f9648045ull}},
    {"StandardHyTM/adaptive", {{23,0,0,0,0,0}, {300,0,0,0,0,0}, {0,18,0,0,0,0}, {0,0,0},
      5, 0x7bf7bc103f898f14ull, 0x8094c632d143e5d9ull}},
    {"TL2/adaptive", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      285, 0xb69c601043fc7e55ull, 0x150b60cad57d8110ull}},
    {"RH1-Fast/adaptive", {{0,26,295,84,0,0}, {0,5,211,46,38,0}, {0,142,0,1,0,0}, {0,0,0},
      286, 0x10aca7a1c21343a0ull, 0xf3156394eea15907ull}},
    {"RH1-Mix10/adaptive", {{0,27,295,98,0,0}, {0,5,197,53,45,0}, {0,161,0,4,0,0}, {0,0,0},
      282, 0xf76489b6ec58b044ull, 0x4c5f586a46a42736ull}},
    {"RH1-Mix100/adaptive", {{0,20,295,103,0,0}, {0,5,192,55,48,0}, {0,165,0,1,0,0}, {0,0,0},
      281, 0xf843d3e826ebdc9dull, 0xed614e6e122ea210ull}},
    {"HybridNOrec/adaptive", {{55,0,0,0,0,282}, {18,0,0,0,0,282}, {0,28,0,9,0,0}, {0,0,0},
      0, 0x2cbceab23789dd51ull, 0x73aac0ce9528ec48ull}},
    {"PhasedTM/adaptive", {{86,0,0,0,0,263}, {37,0,0,0,0,263}, {0,30,0,19,0,0}, {0,0,0},
      254, 0x50787dd5d0e3a482ull, 0x92dac9fce5d723caull}},
    {"TATAS-Elide/adaptive", {{80,0,0,0,0,0}, {300,0,0,0,0,0}, {0,26,0,20,0,0}, {0,0,0},
      0, 0x6b421195f3c68863ull, 0x090aea219022807cull}},
    {"RH1-ForceSlow/adaptive", {{0,0,300,93,0,0}, {0,0,207,64,29,0}, {0,122,0,0,0,0}, {0,0,0},
      284, 0xf522f30b7b25e65dull, 0xbdc7a8c883784797ull}},
    {"RH1-ForceRH2/adaptive", {{0,0,0,300,0,0}, {0,0,0,261,39,0}, {0,39,0,0,0,0}, {0,0,0},
      280, 0x314179b11325b926ull, 0xbe0ef8f2d7efd915ull}},
    {"StandardHyTM-TL2/adaptive", {{29,0,0,0,0,291}, {9,0,0,0,0,291}, {0,18,0,2,0,0}, {0,0,0},
      290, 0x8b6ca37fc939f9b4ull, 0xb5f254ae33080f11ull}},
    {"HybridNOrec-SW/adaptive", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      0, 0xb69c601043fc7e55ull, 0x0d91f8837afda1a4ull}},
    {"HTM/adaptive/durable", {{51,0,0,0,0,0}, {300,0,0,0,0,0}, {0,21,0,13,0,0}, {0,0,0},
      0, 0x072be535b83f0a86ull, 0x15532ca0d02540feull}},
    {"StandardHyTM/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1840,568,284},
      284, 0xdc2357d1072560d5ull, 0x9a677b5ca5e1025eull}},
    {"TL2/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1836,560,280},
      280, 0xa29e990cabf57d45ull, 0x941c285a36ecb908ull}},
    {"RH1-Fast/adaptive/durable", {{0,16,299,103,0,0}, {0,1,196,64,39,0}, {0,156,0,1,0,0}, {1786,572,286},
      286, 0xbc9d0618e817c646ull, 0x1bf46b7d18281303ull}},
    {"RH1-Mix10/adaptive/durable", {{0,16,298,103,0,0}, {0,2,195,53,50,0}, {0,167,0,0,0,0}, {1918,560,280},
      280, 0x066d3af625ff9770ull, 0x2b746c853cf4ad83ull}},
    {"RH1-Mix100/adaptive/durable", {{0,36,291,98,0,0}, {0,9,193,54,44,0}, {0,164,0,5,0,0}, {1834,580,290},
      290, 0x11890f3256115bdeull, 0x6d33168f09816ef1ull}},
    {"HybridNOrec/adaptive/durable", {{71,0,0,0,0,270}, {30,0,0,0,0,270}, {0,30,0,11,0,0}, {1814,572,286},
      0, 0xa95011b0ab2ab775ull, 0x20fe7dfedacc68a0ull}},
    {"PhasedTM/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1730,580,290},
      290, 0x5d860d3d5e4c5139ull, 0x0792be2f0e81d289ull}},
    {"TATAS-Elide/adaptive/durable", {{57,0,0,0,0,0}, {300,0,0,0,0,0}, {0,26,0,11,0,0}, {0,0,0},
      0, 0xa661f0c3b469bf38ull, 0x52f4dcaf425caa2dull}},
    {"RH1-ForceSlow/adaptive/durable", {{0,0,300,104,0,0}, {0,0,196,59,45,0}, {0,149,0,0,0,0}, {1796,558,279},
      279, 0x71017c82b22c5ed9ull, 0xda9db453433e159bull}},
    {"RH1-ForceRH2/adaptive/durable", {{0,0,0,300,0,0}, {0,0,0,255,45,0}, {0,45,0,0,0,0}, {1794,562,281},
      281, 0x6509fbb0c2df1601ull, 0x000c52b58b13559full}},
    {"StandardHyTM-TL2/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1842,582,291},
      291, 0xca4c81a69db8e016ull, 0x8d51410739e35743ull}},
    {"HybridNOrec-SW/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1694,570,285},
      0, 0xb32c9976deda352aull, 0xac0f70527a77e1ceull}},
};

const Expected kExpectedDefaultClock[] = {
    {"HTM/fixed", {{635,0,0,0,0,0}, {300,0,0,0,0,0}, {0,308,0,104,0,0}, {0,0,0},
      0, 0xd41a07504e096d50ull, 0xf20fc3c07ba9ad28ull}},
    {"StandardHyTM/fixed", {{527,0,0,0,0,0}, {300,0,0,0,0,0}, {0,318,0,68,0,0}, {0,0,0},
      0, 0xaa8fa447058fe0c8ull, 0xe7357aa45182dfafull}},
    {"TL2/fixed", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      59, 0xb69c601043fc7e55ull, 0x66bc091771595149ull}},
    {"RH1-Fast/fixed", {{0,510,139,94,0,0}, {0,161,45,54,40,0}, {0,412,0,71,0,0}, {0,0,0},
      52, 0x968939d5e6013236ull, 0xb1d8e386f7d35dd8ull}},
    {"RH1-Mix10/fixed", {{0,511,178,111,0,0}, {0,122,67,62,49,0}, {0,489,0,60,0,0}, {0,0,0},
      64, 0x886928fa00a9c0c2ull, 0xda0c18f014341845ull}},
    {"RH1-Mix100/fixed", {{0,300,199,102,0,0}, {0,101,97,61,41,0}, {0,300,0,42,0,0}, {0,0,0},
      58, 0x7ffadda3396821afull, 0x83ea891ce9bf0dfcull}},
    {"HybridNOrec/fixed", {{496,0,0,0,0,88}, {212,0,0,0,0,88}, {0,176,0,108,0,0}, {0,0,0},
      0, 0x3709cfb292dcf8f5ull, 0xe9087ce7e223c54bull}},
    {"PhasedTM/fixed", {{453,0,0,0,0,84}, {216,0,0,0,0,84}, {0,168,0,69,0,0}, {0,0,0},
      21, 0xf125dec09aca9399ull, 0xbd2fc309b82e2ad7ull}},
    {"TATAS-Elide/fixed", {{488,0,0,0,0,0}, {300,0,0,0,0,0}, {0,154,0,111,0,0}, {0,0,0},
      0, 0xc854aff203704370ull, 0x91ff7ecfd7e1d786ull}},
    {"RH1-ForceSlow/fixed", {{0,0,300,95,0,0}, {0,0,205,51,44,0}, {0,139,0,0,0,0}, {0,0,0},
      62, 0xe4143bb1d368f64aull, 0x55a149a786e873bdull}},
    {"RH1-ForceRH2/fixed", {{0,0,0,300,0,0}, {0,0,0,264,36,0}, {0,36,0,0,0,0}, {0,0,0},
      72, 0xa55b591621771219ull, 0xfebe7cc67ba57654ull}},
    {"StandardHyTM-TL2/fixed", {{545,0,0,0,0,160}, {140,0,0,0,0,160}, {0,320,0,85,0,0}, {0,0,0},
      52, 0xa35d87a72452aea9ull, 0xda96ac4f86347bf6ull}},
    {"HybridNOrec-SW/fixed", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      0, 0xb69c601043fc7e55ull, 0x3c8365f579c2b270ull}},
    {"HTM/fixed/durable", {{601,0,0,0,0,0}, {300,0,0,0,0,0}, {0,284,0,88,0,0}, {0,0,0},
      0, 0xa86fdb72fc5c94b4ull, 0x9ee766461e110894ull}},
    {"StandardHyTM/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1932,568,284},
      61, 0x9841f727122e8895ull, 0x5a1176a8d5b3d26dull}},
    {"TL2/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1798,574,287},
      65, 0x3f37d7fc2a453f22ull, 0xf652efafc0fcd811ull}},
    {"RH1-Fast/fixed/durable", {{0,536,179,109,0,0}, {0,121,70,63,46,0}, {0,513,0,57,0,0}, {1774,564,282},
      63, 0x4be5419542c90aa1ull, 0xfa4ebd315dae7d72ull}},
    {"RH1-Mix10/fixed/durable", {{0,495,164,104,0,0}, {0,136,60,57,47,0}, {0,455,0,55,0,0}, {1850,570,285},
      64, 0xaca568756a6445f4ull, 0x05b71bb926b77d9dull}},
    {"RH1-Mix100/fixed/durable", {{0,300,188,99,0,0}, {0,112,89,48,51,0}, {0,305,0,33,0,0}, {1928,570,285},
      58, 0x699c8768f0db0ee4ull, 0x2f301c24031e40aeull}},
    {"HybridNOrec/fixed/durable", {{482,0,0,0,0,96}, {204,0,0,0,0,96}, {0,192,0,86,0,0}, {1756,578,289},
      0, 0xbd878d262c9d9fa6ull, 0xf580912cb1401d04ull}},
    {"PhasedTM/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1770,576,288},
      57, 0x2fc7a69010c2be2dull, 0x200e848364cff43dull}},
    {"TATAS-Elide/fixed/durable", {{484,0,0,0,0,0}, {300,0,0,0,0,0}, {0,144,0,112,0,0}, {0,0,0},
      0, 0x980a73a3c5444d89ull, 0xbf916d5fd5107e9aull}},
    {"RH1-ForceSlow/fixed/durable", {{0,0,300,92,0,0}, {0,0,208,53,39,0}, {0,131,0,0,0,0}, {1740,570,285},
      67, 0x2071924bb11ac17dull, 0x6d82d92355b6d5fcull}},
    {"RH1-ForceRH2/fixed/durable", {{0,0,0,300,0,0}, {0,0,0,260,40,0}, {0,40,0,0,0,0}, {1812,576,288},
      73, 0x8c5cb4f9f1b2b77dull, 0x153f559375704b34ull}},
    {"StandardHyTM-TL2/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1782,570,285},
      65, 0x7d9116399becf2b6ull, 0xf135ba17f0ab3794ull}},
    {"HybridNOrec-SW/fixed/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1778,580,290},
      0, 0x6cfb8595841853fdull, 0xfacd483d0247715cull}},
    {"HTM/adaptive", {{48,0,0,0,0,0}, {300,0,0,0,0,0}, {0,21,0,11,0,0}, {0,0,0},
      0, 0xf920f84e537d68ffull, 0x9bac0b17f9648045ull}},
    {"StandardHyTM/adaptive", {{23,0,0,0,0,0}, {300,0,0,0,0,0}, {0,18,0,0,0,0}, {0,0,0},
      0, 0x7bf7bc103f898f14ull, 0x8094c632d143e5d9ull}},
    {"TL2/adaptive", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      58, 0xb69c601043fc7e55ull, 0x150b60cad57d8110ull}},
    {"RH1-Fast/adaptive", {{0,26,295,84,0,0}, {0,5,211,46,38,0}, {0,142,0,1,0,0}, {0,0,0},
      66, 0x10aca7a1c21343a0ull, 0xf3156394eea15907ull}},
    {"RH1-Mix10/adaptive", {{0,27,295,98,0,0}, {0,5,197,53,45,0}, {0,161,0,4,0,0}, {0,0,0},
      57, 0xf76489b6ec58b044ull, 0x4c5f586a46a42736ull}},
    {"RH1-Mix100/adaptive", {{0,20,295,102,0,0}, {0,5,193,55,47,0}, {0,163,0,1,0,0}, {0,0,0},
      70, 0x6185e502665f61a9ull, 0xed614e6e122ea210ull}},
    {"HybridNOrec/adaptive", {{55,0,0,0,0,282}, {18,0,0,0,0,282}, {0,28,0,9,0,0}, {0,0,0},
      0, 0x2cbceab23789dd51ull, 0x73aac0ce9528ec48ull}},
    {"PhasedTM/adaptive", {{86,0,0,0,0,263}, {37,0,0,0,0,263}, {0,30,0,19,0,0}, {0,0,0},
      57, 0x50787dd5d0e3a482ull, 0x92dac9fce5d723caull}},
    {"TATAS-Elide/adaptive", {{80,0,0,0,0,0}, {300,0,0,0,0,0}, {0,26,0,20,0,0}, {0,0,0},
      0, 0x6b421195f3c68863ull, 0x090aea219022807cull}},
    {"RH1-ForceSlow/adaptive", {{0,0,300,93,0,0}, {0,0,207,64,29,0}, {0,122,0,0,0,0}, {0,0,0},
      66, 0xf522f30b7b25e65dull, 0xbdc7a8c883784797ull}},
    {"RH1-ForceRH2/adaptive", {{0,0,0,300,0,0}, {0,0,0,261,39,0}, {0,39,0,0,0,0}, {0,0,0},
      72, 0x314179b11325b926ull, 0xbe0ef8f2d7efd915ull}},
    {"StandardHyTM-TL2/adaptive", {{29,0,0,0,0,291}, {9,0,0,0,0,291}, {0,18,0,2,0,0}, {0,0,0},
      67, 0x8b6ca37fc939f9b4ull, 0xb5f254ae33080f11ull}},
    {"HybridNOrec-SW/adaptive", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {0,0,0},
      0, 0xb69c601043fc7e55ull, 0x0d91f8837afda1a4ull}},
    {"HTM/adaptive/durable", {{51,0,0,0,0,0}, {300,0,0,0,0,0}, {0,21,0,13,0,0}, {0,0,0},
      0, 0x072be535b83f0a86ull, 0x15532ca0d02540feull}},
    {"StandardHyTM/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1840,568,284},
      57, 0xdc2357d1072560d5ull, 0x9a677b5ca5e1025eull}},
    {"TL2/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1836,560,280},
      65, 0xa29e990cabf57d45ull, 0x941c285a36ecb908ull}},
    {"RH1-Fast/adaptive/durable", {{0,16,299,103,0,0}, {0,1,196,64,39,0}, {0,156,0,1,0,0}, {1786,572,286},
      64, 0xbc9d0618e817c646ull, 0x1bf46b7d18281303ull}},
    {"RH1-Mix10/adaptive/durable", {{0,16,298,103,0,0}, {0,2,195,53,50,0}, {0,167,0,0,0,0}, {1918,560,280},
      76, 0x066d3af625ff9770ull, 0x2b746c853cf4ad83ull}},
    {"RH1-Mix100/adaptive/durable", {{0,36,291,98,0,0}, {0,9,193,54,44,0}, {0,164,0,5,0,0}, {1834,580,290},
      71, 0x11890f3256115bdeull, 0x6d33168f09816ef1ull}},
    {"HybridNOrec/adaptive/durable", {{71,0,0,0,0,270}, {30,0,0,0,0,270}, {0,30,0,11,0,0}, {1814,572,286},
      0, 0xa95011b0ab2ab775ull, 0x20fe7dfedacc68a0ull}},
    {"PhasedTM/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1730,580,290},
      59, 0x5d860d3d5e4c5139ull, 0x0792be2f0e81d289ull}},
    {"TATAS-Elide/adaptive/durable", {{57,0,0,0,0,0}, {300,0,0,0,0,0}, {0,26,0,11,0,0}, {0,0,0},
      0, 0xa661f0c3b469bf38ull, 0x52f4dcaf425caa2dull}},
    {"RH1-ForceSlow/adaptive/durable", {{0,0,300,104,0,0}, {0,0,196,59,45,0}, {0,149,0,0,0,0}, {1796,558,279},
      62, 0x71017c82b22c5ed9ull, 0xda9db453433e159bull}},
    {"RH1-ForceRH2/adaptive/durable", {{0,0,0,300,0,0}, {0,0,0,256,44,0}, {0,44,0,0,0,0}, {1794,562,281},
      72, 0xd3f5f1d325eb3986ull, 0x000c52b58b13559full}},
    {"StandardHyTM-TL2/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1842,582,291},
      57, 0xca4c81a69db8e016ull, 0x8d51410739e35743ull}},
    {"HybridNOrec-SW/adaptive/durable", {{0,0,0,0,0,300}, {0,0,0,0,0,300}, {0,0,0,0,0,0}, {1694,570,285},
      0, 0xb32c9976deda352aull, 0xac0f70527a77e1ceull}},
};
// clang-format on

template <std::size_t N>
void print_array(const std::array<std::uint64_t, N>& a) {
  std::printf("{");
  for (std::size_t i = 0; i < N; ++i) std::printf("%s%" PRIu64, i ? "," : "", a[i]);
  std::printf("}");
}

void print_table(const std::vector<Run>& runs) {
  for (const Run& r : runs) {
    std::printf("    {\"%s\", {", r.name.c_str());
    print_array(r.fp.attempts);
    std::printf(", ");
    print_array(r.fp.commits);
    std::printf(", ");
    print_array(r.fp.aborts);
    std::printf(", ");
    print_array(r.fp.fences);
    std::printf(",\n      %" PRIu64 ", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}},\n",
                r.fp.global_publishes, r.fp.trace_hash, r.fp.memory_hash);
  }
}

template <std::size_t N>
void diff_array(const char* field, const std::array<std::uint64_t, N>& got,
                const std::array<std::uint64_t, N>& want) {
  for (std::size_t i = 0; i < N; ++i) {
    if (got[i] != want[i]) {
      std::printf("      %s[%zu]: got %" PRIu64 ", want %" PRIu64 "\n", field, i, got[i],
                  want[i]);
    }
  }
}

template <std::size_t N>
void check_replay(GvMode clock, const Expected (&expected)[N]) {
  const std::vector<Run> runs = run_all_cases(clock);
  CHECK_EQ(runs.size(), N);
  for (std::size_t i = 0; i < runs.size() && i < N; ++i) {
    const Run& r = runs[i];
    const Expected& e = expected[i];
    CHECK(r.name == e.name);
    if (r.fp == e.fp) continue;
    std::printf("    replay mismatch: %s (substrate sim, clock %s, seed %zu)\n",
                r.name.c_str(), to_string(clock), i + 1);
    diff_array("attempts_by_path", r.fp.attempts, e.fp.attempts);
    diff_array("commits_by_path", r.fp.commits, e.fp.commits);
    diff_array("aborts_by_cause", r.fp.aborts, e.fp.aborts);
    diff_array("fences", r.fp.fences, e.fp.fences);
    CHECK_EQ(r.fp.global_publishes, e.fp.global_publishes);
    CHECK_EQ(r.fp.trace_hash, e.fp.trace_hash);
    CHECK_EQ(r.fp.memory_hash, e.fp.memory_hash);
    CHECK(r.fp == e.fp);
  }
}

void test_replay_matches_golden() { check_replay(GvMode::kGv1, kExpected); }

void test_replay_default_clock_matches_golden() {
  check_replay(UniverseConfig{}.gv_mode, kExpectedDefaultClock);
}

/// The stream must reach every tier the small budget is meant to force,
/// or the golden values would pin less than they claim.
template <std::size_t N>
void check_covers_every_tier(const Expected (&expected)[N]) {
  std::array<std::uint64_t, kPaths> commits{};
  std::uint64_t capacity = 0, injected = 0;
  for (const Expected& e : expected) {
    for (std::size_t p = 0; p < kPaths; ++p) commits[p] += e.fp.commits[p];
    capacity += e.fp.aborts[static_cast<std::size_t>(AbortCause::kHtmCapacity)];
    injected += e.fp.aborts[static_cast<std::size_t>(AbortCause::kInjected)];
  }
  for (std::size_t p = 0; p < kPaths; ++p) {
    if (commits[p] == 0) std::printf("    no commits on %s\n", to_string(static_cast<ExecPath>(p)));
    CHECK(commits[p] > 0);
  }
  CHECK(capacity > 0);
  CHECK(injected > 0);
}

void test_replay_covers_every_tier() {
  check_covers_every_tier(kExpected);
  check_covers_every_tier(kExpectedDefaultClock);
}

}  // namespace
}  // namespace rhtm::test

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--print") == 0) {
    std::printf("// kExpected (GV1)\n");
    rhtm::test::print_table(rhtm::test::run_all_cases(rhtm::GvMode::kGv1));
    std::printf("// kExpectedDefaultClock\n");
    rhtm::test::print_table(rhtm::test::run_all_cases(rhtm::UniverseConfig{}.gv_mode));
    return 0;
  }
  return rhtm::test::run_tests({
      {"replay_matches_golden", rhtm::test::test_replay_matches_golden},
      {"replay_default_clock_matches_golden",
       rhtm::test::test_replay_default_clock_matches_golden},
      {"replay_covers_every_tier", rhtm::test::test_replay_covers_every_tier},
  });
}
