#pragma once

// Simulated persistent-memory domain for the durable commit variants
// (Coccimiglio, Brown & Ravi, "Persistent HyTM via Fast Path Fine-Grained
// Locking" — PAPERS.md). Three pieces, all in ONE region that survives a
// fork(), so the crash-recovery harness can kill a child process mid-commit
// and validate recovery from the parent:
//
//  * persist fences — pwb (write-back one modified element), pfence (order
//    preceding write-backs), psync (drain to the durability point). Counted
//    no-ops: on real NVM these are CLWB/SFENCE; here they are tallies in
//    the region header, so benches report fences-per-commit and the
//    zero-overhead contract of non-durable mode is testable. Each tally
//    is a ShardedCounter: per-thread slots, summed on read and exact at
//    quiescence, so counting does not contend where the modelled fence
//    would not. Each phase adds its fences in one step (log: n+1 pwb;
//    mark: 1 pwb, 2 pfence; apply: n pwb, 1 psync) rather than one RMW per
//    modelled fence, with the same per-commit totals. The pwb counter
//    models one write-back per *logged element* (a 16-byte addr/value pair
//    or record header, each within one cache line), not physical
//    64-byte-line dedup.
//
//  * redo log — the only crash-atomic structure. Every durable commit
//    appends one data record (txid + the write-set's absolute addr/value
//    pairs), persists it, then appends a commit marker. Recovery replays
//    exactly the marked transactions, in marker order; unmarked records are
//    discarded. Appends serialize on a spinlock in the header and publish
//    the new head only after the record is fully written, so a crash at any
//    kill point leaves a scannable log (a mid-append record is beyond the
//    published head). Marker append order is consistent with transaction
//    serialization because every durable protocol path holds its conflict
//    locks (stripe locks / the NOrec sequence lock) across the marker.
//    The txid is drawn inside the append critical section, so txids are
//    dense and rise in log order; recovery resolves each marker to its
//    record by txid index in one linear scan.
//
//  * populate-ahead window — a real persistent log is preallocated, so its
//    appends never fault; this region is a fresh anonymous mapping whose
//    pages fault in on first write. A fault taken inside the append lock
//    would stall every other committer behind it (about one commit in 64
//    opens a new 4 KiB page), so the tail latency would measure the
//    simulation rather than the protocol. Before taking the lock,
//    durable_log() keeps the log populated up to two kPopulateChunkWords
//    chunks past the head: whoever sees the frontier within one chunk of
//    the head claims the next chunk with a CAS and faults it in with
//    madvise(MADV_POPULATE_WRITE), which writes no data and so cannot race
//    the appenders. Where the advice is missing (non-Linux, kernels before
//    5.14) the call does nothing and pages fault on first append as before.
//    MAP_POPULATE is not used: it would fault in the whole log (hundreds of
//    MiB for a benchmark-sized log) at construction.
//
//  * durable image — the simulated NVM data space: an open-addressed
//    cell-address -> value table the apply phase writes back into (one pwb
//    per element). In-memory TmCells are the DRAM tier; the image is what
//    survives a crash. Recovery = replay marked log records into the image.
//
// Commit protocol (log-then-fence-then-apply), one kill point per phase:
//
//     kill(path.before_log)
//     append data record; n+1 pwb (record header + n pairs)
//     kill(path.after_log)
//     pfence; append commit marker, pwb; pfence
//     kill(path.after_mark)          <- the durability point
//     ... in-memory publication (protocol-specific) ...
//     image stores                   <- kill(path.mid_apply) halfway
//     n pwb; psync
//     kill(path.after_apply)
//
// Kill points are named "<path>.<phase>"; the path names and phase names
// below are the single source the crash harness sweeps. All kill points sit
// in software sections (post-_xend on the hardware paths), where a real
// crash could actually observe the state.
//
// The region is mmap'd MAP_SHARED | MAP_ANONYMOUS: a forked child's
// persists are visible to the parent, which is how tests/crash_harness.h
// validates recovery after killing the child. Durable mode requires a
// substrate with real commit atomicity (SubstrateTraits<H>::kAtomic):
// the durable hardware commits stamp their write stripes *locked* inside
// the transaction, and a substrate that cannot roll stores back (HtmEmul)
// would abandon those locks on any abort.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <iterator>
#include <vector>

#if defined(_WIN32)
#include <new>
#else
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "core/cell.h"
#include "core/sharded_counter.h"
#include "core/trace.h"

namespace rhtm {

struct PmemConfig {
  std::size_t log_words = std::size_t{1} << 20;  ///< 8 MiB redo-log region
};

namespace pmem {

/// Exit code a killed child reports; the harness distinguishes "died at the
/// armed kill point" from "completed" (0) and "failed some other way".
inline constexpr int kKillExitCode = 42;

// Process-global fence tallies across every PersistentDomain — the
// leak detector: non-durable workloads must leave all three untouched
// (tests/durable_mode_test.cpp).
inline ShardedCounter g_total_pwb;
inline ShardedCounter g_total_pfence;
inline ShardedCounter g_total_psync;

/// The durable commit paths. Each name prefixes that path's kill points and
/// tags its log records' provenance in test output. The RH2 slow-slow
/// escalation commits through tl2_software_commit, so it fires the "tl2"
/// points — there is no separate slow-slow path name.
inline constexpr const char* kPathTl2 = "tl2";            ///< TL2 / slow-slow software commit
inline constexpr const char* kPathRh1Fast = "rh1_fast";   ///< RH1 fast path, post-_xend
inline constexpr const char* kPathRh1 = "rh1";            ///< RH1 reduced hardware commit
inline constexpr const char* kPathRh2 = "rh2";            ///< RH2 write-set hardware commit
inline constexpr const char* kPathNorecHw = "norec_hw";   ///< HybridNorec hardware commit
inline constexpr const char* kPathNorecSw = "norec_sw";   ///< HybridNorec value-log replay

inline constexpr const char* kPaths[] = {kPathTl2,  kPathRh1Fast,  kPathRh1,
                                         kPathRh2,  kPathNorecHw,  kPathNorecSw};

/// Kill-point phases, in commit order. Index >= kFirstDurablePhase means the
/// commit marker was persisted before the crash: recovery MUST replay the
/// transaction. Earlier phases mean it must be discarded.
inline constexpr const char* kPhases[] = {"before_log", "after_log", "after_mark",
                                          "mid_apply", "after_apply"};
inline constexpr std::size_t kFirstDurablePhase = 2;  ///< index of "after_mark"

// ------------------------------------------------------------ kill switch --
// One armed kill point per process ("path.phase" + hit count). kill_point()
// is two loads on the disarmed path; when the armed name matches, the n-th
// hit terminates the process immediately (no atexit, no flushing) — the
// simulated power failure.
inline std::atomic<const char*> g_kill_name{nullptr};
inline std::atomic<int> g_kill_countdown{0};

inline void arm_kill(const char* name, int nth_hit = 1) {
  g_kill_countdown.store(nth_hit, std::memory_order_relaxed);
  g_kill_name.store(name, std::memory_order_release);
}
inline void disarm_kill() { g_kill_name.store(nullptr, std::memory_order_release); }

inline void kill_point(const char* path, const char* phase) {
  const char* armed = g_kill_name.load(std::memory_order_acquire);
  if (armed == nullptr) return;
  const std::size_t plen = std::strlen(path);
  if (std::strncmp(armed, path, plen) != 0 || armed[plen] != '.' ||
      std::strcmp(armed + plen + 1, phase) != 0) {
    return;
  }
  if (g_kill_countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Flight-recorder dump before the simulated power failure: _exit skips
    // every destructor, so this hook is the trace's only way out.
    trace::anomaly(armed);
#if defined(_WIN32)
    std::_Exit(kKillExitCode);
#else
    _exit(kKillExitCode);
#endif
  }
}

/// A write captured inside a hardware fast path for post-commit persistence
/// (the fast path has no WriteSet; this is its redo capture).
struct CapturedWrite {
  TmCell* cell;
  TmWord value;
};

}  // namespace pmem

/// Snapshot of a domain's fence counters (see PersistentDomain).
struct FenceCounts {
  std::uint64_t pwb = 0;
  std::uint64_t pfence = 0;
  std::uint64_t psync = 0;
  [[nodiscard]] std::uint64_t total() const { return pwb + pfence + psync; }
};

class PersistentDomain {
  // Log record words: header = (tag << 56) | entry-count, then txid, then
  // entry-count * (addr, value) pairs. Marker = header + txid only.
  static constexpr std::uint64_t kDataTag = 0xD1;
  static constexpr std::uint64_t kMarkTag = 0xC2;
  static constexpr std::uint64_t kTagShift = 56;
  static constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kTagShift) - 1;

  struct Header {
    // Append state, on a cache line of its own. log_head: published
    // words; the recovery scan stops there.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> log_head{0};
    std::atomic<std::uint64_t> next_txid{1};  ///< written only under log_lock
    std::atomic<std::uint32_t> log_lock{0};  ///< append spinlock (never taken by recovery)
    std::atomic<std::uint32_t> log_overflow{0};
    // Populate-ahead frontier (words), off the append line: claimed
    // outside the lock, so its CAS never bounces the line appenders spin on.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> log_populated{0};
    // Fence tallies: every slot on its own line, so no counter shares one
    // with the append state or with another thread's slot.
    ShardedCounter pwb;
    ShardedCounter pfence;
    ShardedCounter psync;
  };
  static_assert(offsetof(Header, log_populated) >= kCacheLineBytes,
                "append state must own its cache line");
  static_assert(offsetof(Header, pwb) >= offsetof(Header, log_populated) + kCacheLineBytes,
                "the populate frontier must own its cache line");

  struct ImageSlot {
    std::atomic<std::uint64_t> addr{0};  ///< 0 = empty
    std::atomic<TmWord> value{0};
  };

 public:
  /// Populate-ahead chunk: 64 KiB of log, so at most two chunks (128 KiB)
  /// are resident beyond the head.
  static constexpr std::size_t kPopulateChunkWords = (std::size_t{64} << 10) / sizeof(std::uint64_t);
  /// Durable-image table slots (a power of two).
  static constexpr std::size_t kImageSlots = std::size_t{1} << 16;

  explicit PersistentDomain(const PmemConfig& cfg = {})
      : cfg_(cfg),
        bytes_(sizeof(Header) + kImageSlots * sizeof(ImageSlot) +
               cfg.log_words * sizeof(std::uint64_t)) {
#if defined(_WIN32)
    base_ = ::operator new(bytes_, std::align_val_t{alignof(Header)});
    std::memset(base_, 0, bytes_);
#else
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      std::fprintf(stderr, "pmem: mmap of %zu bytes failed\n", bytes_);
      std::abort();
    }
#endif
    new (base_) Header();
    image_ = reinterpret_cast<ImageSlot*>(static_cast<char*>(base_) + sizeof(Header));
    for (std::size_t i = 0; i < kImageSlots; ++i) new (image_ + i) ImageSlot();
    log_ = reinterpret_cast<std::uint64_t*>(image_ + kImageSlots);
  }

  PersistentDomain(const PersistentDomain&) = delete;
  PersistentDomain& operator=(const PersistentDomain&) = delete;

  ~PersistentDomain() {
#if defined(_WIN32)
    ::operator delete(base_, std::align_val_t{alignof(Header)});
#else
    munmap(base_, bytes_);
#endif
  }

  // ------------------------------------------------------- persist fences --
  // Each call tallies `n` modelled fences; a phase makes one call per kind.
  void pwb(std::uint64_t n) {
    header().pwb.fetch_add(n);
    pmem::g_total_pwb.fetch_add(n);
  }
  void pfence(std::uint64_t n) {
    header().pfence.fetch_add(n);
    pmem::g_total_pfence.fetch_add(n);
  }
  void psync() {
    header().psync.fetch_add(1);
    pmem::g_total_psync.fetch_add(1);
  }

  /// Exact once the committing threads have quiesced.
  [[nodiscard]] FenceCounts fence_counts() const {
    const Header& h = header();
    return {h.pwb.load(), h.pfence.load(), h.psync.load()};
  }

  // -------------------------------------------- the durable commit phases --
  /// Phase 1: append the data record (one pwb per element, counted once
  /// the record is appended). `entries` elements expose `.cell` and
  /// `.value`. Returns the transaction id the marker and the recovery
  /// records carry — 0, which no record carries, when the log is full (a
  /// full log consumes no txid).
  template <class Entries>
  std::uint64_t durable_log(const Entries& entries, const char* path) {
    pmem::kill_point(path, "before_log");
    const std::size_t n = std::size(entries);
    populate_ahead();
    std::uint64_t txid = 0;
    std::uint64_t* rec = reserve_and_lock(2 + 2 * n);
    if (rec != nullptr) {
      // Under the append lock: a plain load/store pair, not a shared RMW.
      std::atomic<std::uint64_t>& next = header().next_txid;
      txid = next.load(std::memory_order_relaxed);
      next.store(txid + 1, std::memory_order_relaxed);
      rec[0] = (kDataTag << kTagShift) | static_cast<std::uint64_t>(n);
      rec[1] = txid;
      std::size_t i = 2;
      for (const auto& e : entries) {
        rec[i] = reinterpret_cast<std::uintptr_t>(e.cell);
        rec[i + 1] = e.value;
        i += 2;
      }
      publish_and_unlock(rec, 2 + 2 * n);
      pwb(n + 1);  // the record header plus one write-back per logged pair
    }
    return txid;
  }

  /// Phase 2: persist the commit marker — the durability point. Everything
  /// logged before is fenced ahead of the marker, the marker ahead of the
  /// apply.
  void durable_mark(std::uint64_t txid) {
    std::uint64_t* rec = reserve_and_lock(2);
    if (rec != nullptr) {
      rec[0] = kMarkTag << kTagShift;
      rec[1] = txid;
      publish_and_unlock(rec, 2);
      pwb(1);
    }
    pfence(2);  // one ahead of the marker, one after it
  }

  /// Phase 3: write the new values back into the durable image (one pwb per
  /// element) and drain. A crash mid-apply is repaired by recovery replaying
  /// the marked record.
  template <class Entries>
  void durable_apply(const Entries& entries, const char* path) {
    const std::size_t n = std::size(entries);
    std::size_t applied = 0;
    for (const auto& e : entries) {
      if (applied == n / 2) pmem::kill_point(path, "mid_apply");
      image_store(reinterpret_cast<std::uintptr_t>(e.cell), e.value);
      ++applied;
    }
    pwb(n);
    psync();
  }

  /// The durable commit step every durable path runs: log, mark (the
  /// durability point), `publish()` — the path's in-memory publication,
  /// empty where a hardware commit already published at _xend — then
  /// apply, each phase's cycles traced on `ring`. A phase's trace event
  /// precedes its "after_*" kill point, so a flight-recorder dump at that
  /// point shows every phase that completed. The caller holds its
  /// conflict locks (stripe locks, locked stamps, the NOrec sequence lock)
  /// across the whole step, so marker order is serialization order and no
  /// reader sees a value before it is durably marked; it releases them
  /// after.
  template <class Entries, class Publish>
  void persist(const Entries& entries, const char* path, trace::TraceRing* ring,
               Publish&& publish) {
    const std::uint64_t t0 = rdtsc();
    const std::uint64_t txid = durable_log(entries, path);
    const std::uint64_t t1 = rdtsc();
    trace::durable_phase(ring, trace::EventKind::kDurLog, t1 - t0);
    pmem::kill_point(path, "after_log");
    durable_mark(txid);
    trace::durable_phase(ring, trace::EventKind::kDurMark, rdtsc() - t1);
    pmem::kill_point(path, "after_mark");
    publish();
    const std::uint64_t t2 = rdtsc();
    durable_apply(entries, path);
    trace::durable_phase(ring, trace::EventKind::kDurApply, rdtsc() - t2);
    pmem::kill_point(path, "after_apply");
  }

  // --------------------------------------------------------------- image --
  [[nodiscard]] bool image_lookup(const void* addr, TmWord* out) const {
    const std::uint64_t key = reinterpret_cast<std::uintptr_t>(addr);
    const std::size_t mask = kImageSlots - 1;
    std::size_t i = static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 32) & mask;
    for (std::size_t probes = 0; probes < kImageSlots; ++probes) {
      const std::uint64_t a = image_[i].addr.load(std::memory_order_acquire);
      if (a == 0) return false;
      if (a == key) {
        *out = image_[i].value.load(std::memory_order_acquire);
        return true;
      }
      i = (i + 1) & mask;
    }
    return false;
  }

  /// Visits every (addr, value) pair in the durable image.
  template <class Visitor>
  void for_each_image(Visitor&& visit) const {
    for (std::size_t i = 0; i < kImageSlots; ++i) {
      const std::uint64_t a = image_[i].addr.load(std::memory_order_acquire);
      if (a != 0) visit(a, image_[i].value.load(std::memory_order_acquire));
    }
  }

  // ------------------------------------------------------------ recovery --
  struct RecoveredEntry {
    std::uint64_t addr;
    TmWord value;
  };
  /// One durably committed transaction, `entries` in log order. The vector
  /// recover_log() returns is sorted by marker position — the serialization
  /// order recovery must replay in.
  struct RecoveredTxn {
    std::uint64_t txid;
    std::uint64_t marker_pos;
    std::vector<RecoveredEntry> entries;
  };
  struct RecoveryStats {
    std::size_t committed = 0;  ///< marked transactions (replayed)
    std::size_t discarded = 0;  ///< logged but unmarked (dropped)
    std::size_t entries_applied = 0;
  };

  /// Scans the published log: committed transactions (data record + marker)
  /// sorted by marker order, plus the discard count. Read-only; safe after a
  /// crash (never touches the append lock). Linear in the log length: data
  /// records carry dense txids in log order, so a marker finds its record
  /// at index txid - (first record's txid); a marker whose txid is out of
  /// that range (or names no record before it) stays unmatched.
  [[nodiscard]] std::vector<RecoveredTxn> recover_log(std::size_t* discarded = nullptr) const {
    struct Pending {
      std::uint64_t txid;
      std::uint64_t marker_pos = 0;
      bool marked = false;
      std::vector<RecoveredEntry> entries;
    };
    std::vector<Pending> seen;  // data records in log order
    const std::uint64_t head = header().log_head.load(std::memory_order_acquire);
    std::uint64_t pos = 0;
    while (pos + 2 <= head) {
      const std::uint64_t word0 = log_[pos];
      const std::uint64_t tag = word0 >> kTagShift;
      const std::uint64_t n = word0 & kCountMask;
      if (tag == kDataTag) {
        if (pos + 2 + 2 * n > head) break;  // truncated tail (crash mid-publish)
        Pending p;
        p.txid = log_[pos + 1];
        p.entries.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          p.entries.push_back({log_[pos + 2 + 2 * i], log_[pos + 3 + 2 * i]});
        }
        seen.push_back(std::move(p));
        pos += 2 + 2 * n;
      } else if (tag == kMarkTag) {
        const std::uint64_t txid = log_[pos + 1];
        if (!seen.empty()) {
          const std::uint64_t idx = txid - seen.front().txid;  // wraps when txid is below
          if (idx < seen.size() && seen[idx].txid == txid) {
            seen[idx].marked = true;
            seen[idx].marker_pos = pos;
          }
        }
        pos += 2;
      } else {
        break;  // unparseable word: nothing after it is reachable
      }
    }
    std::vector<RecoveredTxn> committed;
    std::size_t dropped = 0;
    for (Pending& p : seen) {
      if (p.marked) {
        committed.push_back({p.txid, p.marker_pos, std::move(p.entries)});
      } else {
        ++dropped;
      }
    }
    std::sort(committed.begin(), committed.end(),
              [](const RecoveredTxn& a, const RecoveredTxn& b) {
                return a.marker_pos < b.marker_pos;
              });
    if (discarded != nullptr) *discarded = dropped;
    return committed;
  }

  /// Full recovery: replay every marked transaction into the durable image
  /// in marker order (idempotent redo — repairs a crash mid-apply). Fence
  /// counters are NOT bumped: recovery is not a commit.
  RecoveryStats recover() {
    std::size_t discarded = 0;
    const std::vector<RecoveredTxn> committed = recover_log(&discarded);
    RecoveryStats stats;
    stats.committed = committed.size();
    stats.discarded = discarded;
    for (const RecoveredTxn& t : committed) {
      for (const RecoveredEntry& e : t.entries) {
        image_store(e.addr, e.value);
        ++stats.entries_applied;
      }
    }
    return stats;
  }

  [[nodiscard]] bool log_overflowed() const {
    return header().log_overflow.load(std::memory_order_relaxed) != 0;
  }

  /// The populate-ahead frontier, in log words: the log below it has been
  /// faulted in (or the advice was unavailable).
  [[nodiscard]] std::uint64_t log_populated() const {
    return header().log_populated.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] Header& header() { return *static_cast<Header*>(base_); }
  [[nodiscard]] const Header& header() const { return *static_cast<const Header*>(base_); }

  /// Keeps the log faulted in ahead of the head, outside the append lock
  /// (see the header comment). At most one thread wins each chunk's CAS;
  /// the losers and everyone else append without waiting for it.
  void populate_ahead() {
    Header& h = header();
    std::uint64_t frontier = h.log_populated.load(std::memory_order_relaxed);
    if (frontier >= cfg_.log_words ||
        frontier > h.log_head.load(std::memory_order_relaxed) + kPopulateChunkWords) {
      return;
    }
    const std::uint64_t next =
        std::min<std::uint64_t>(frontier + kPopulateChunkWords, cfg_.log_words);
    if (!h.log_populated.compare_exchange_strong(frontier, next, std::memory_order_relaxed)) {
      return;
    }
#if defined(MADV_POPULATE_WRITE)
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto begin = reinterpret_cast<std::uintptr_t>(log_ + frontier) & ~(page - 1);
    const auto end = reinterpret_cast<std::uintptr_t>(log_ + next);
    (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_POPULATE_WRITE);
#endif
  }

  /// Takes the append lock and returns the record's slot, or nullptr when
  /// the log is full (overflow is sticky and visible; the simulation does
  /// not checkpoint). The head is only published in publish_and_unlock(),
  /// after the record is fully written — a process death mid-append (some
  /// OTHER thread hit its kill point) leaves the partial record beyond the
  /// published head, invisible to recovery.
  [[nodiscard]] std::uint64_t* reserve_and_lock(std::size_t words) {
    Header& h = header();
    while (h.log_lock.exchange(1, std::memory_order_acquire) != 0) {
      while (h.log_lock.load(std::memory_order_relaxed) != 0) detail::cpu_relax();
    }
    const std::uint64_t head = h.log_head.load(std::memory_order_relaxed);
    if (head + words > cfg_.log_words) {
      const std::uint64_t was = h.log_overflow.exchange(1, std::memory_order_relaxed);
      h.log_lock.store(0, std::memory_order_release);
      if (was == 0) trace::anomaly("redo_log_overflow");  // first transition only
      return nullptr;
    }
    return log_ + head;
  }

  void publish_and_unlock(std::uint64_t* rec, std::size_t words) {
    Header& h = header();
    h.log_head.store(static_cast<std::uint64_t>(rec - log_) + words,
                     std::memory_order_release);
    h.log_lock.store(0, std::memory_order_release);
  }

  void image_store(std::uint64_t key, TmWord value) {
    const std::size_t mask = kImageSlots - 1;
    std::size_t i = static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 32) & mask;
    for (std::size_t probes = 0; probes < kImageSlots; ++probes) {
      std::uint64_t a = image_[i].addr.load(std::memory_order_acquire);
      if (a == key) {
        image_[i].value.store(value, std::memory_order_release);
        return;
      }
      if (a == 0 &&
          image_[i].addr.compare_exchange_strong(a, key, std::memory_order_acq_rel)) {
        image_[i].value.store(value, std::memory_order_release);
        return;
      }
      if (a == key) {  // lost the CAS to ourselves-by-key: another thread claimed it
        image_[i].value.store(value, std::memory_order_release);
        return;
      }
      i = (i + 1) & mask;
    }
    std::fprintf(stderr, "pmem: durable image full (%zu slots)\n", kImageSlots);
    std::abort();
  }

  PmemConfig cfg_;
  std::size_t bytes_;
  void* base_;
  ImageSlot* image_;
  std::uint64_t* log_;
};

}  // namespace rhtm
