#pragma once

// Simulated persistent-memory domain for the durable commit variants
// (Coccimiglio, Brown & Ravi, "Persistent HyTM via Fast Path Fine-Grained
// Locking" — PAPERS.md). Four pieces, all in ONE region that survives a
// fork(), so the crash-recovery harness can kill a child process mid-commit
// and validate recovery from the parent:
//
//  * persist fences — pwb (write-back one modified element), pfence (order
//    preceding write-backs), psync (drain to the durability point). Counted
//    no-ops: on real NVM these are CLWB/SFENCE; here they are tallies in
//    the region header, so benches report fences-per-commit and the
//    zero-overhead contract of non-durable mode is testable. Each tally
//    is a ShardedCounter: an add is a plain store to a slot the thread
//    leases (threads past 64 live ones, and a forked child, share one
//    fetch_add overflow slot), summed on read and exact at quiescence, so
//    counting neither contends nor takes a locked RMW where the modelled
//    fence would not. Each phase adds its fences in one step (log: n+1
//    pwb; mark: 1 pwb, 2 pfence; apply: n pwb, 1 psync) rather than one
//    add per modelled fence, with the same per-commit totals. The pwb counter
//    models one write-back per *logged element* (a 16-byte addr/value pair
//    or record header, each within one cache line), not physical
//    64-byte-line dedup.
//
//  * redo log — the only crash-atomic structure. Every durable commit
//    appends one data record (header, its own log position, then the
//    write-set's absolute addr/value pairs), persists it, then appends a
//    2-word commit marker (kMarkTag | record position, seq). Recovery
//    replays exactly the marked records, in seq order; unmarked records
//    are discarded. Appends go to per-thread lanes: the log is cut into
//    kPopulateChunkWords chunks, a thread claims its next chunk with one
//    fetch_add on the chunk cursor (about once per 1,000 commits) and
//    appends into it with plain stores, each append ending in one release
//    store of the chunk's header word (span << kSpanShift | words used).
//    A crash at any kill point therefore leaves every chunk scannable up
//    to its header's count: a mid-append record lies beyond it. A record
//    larger than one chunk claims a multi-chunk span, which the header
//    word records from the claim on. The marker's seq is one global
//    fetch_add, drawn in durable_mark while every durable protocol path
//    still holds its conflict locks (stripe locks / the NOrec sequence
//    lock), so seq order is serialization order; it is the only
//    shared-line RMW of a commit. A full log is sticky and stops every
//    lane (the simulation does not checkpoint). A thread's lane is keyed
//    to the domain it last appended to; a forked child that appends must
//    not share a lane with a parent that appends afterwards (the crash
//    harness forks before any append).
//
//  * populate on claim — a real persistent log is preallocated, so its
//    appends never fault; this region's pages fault in on first touch
//    (core/mapping.h). A claim faults its whole chunk in with
//    madvise(MADV_POPULATE_WRITE): the claiming commit pays the faults,
//    about once per 1,000 commits instead of once per 64, and no other
//    lane waits. Where the advice is missing (non-Linux, kernels before
//    5.14) pages fault on first append. MAP_POPULATE would fault in the
//    whole log (hundreds of MiB for a benchmark-sized log) at construction.
//
//  * durable image — the simulated NVM data space: an open-addressed
//    cell-address -> value table the apply phase writes back into (one pwb
//    per element). In-memory TmCells are the DRAM tier; the image is what
//    survives a crash. Recovery = replay marked log records into the image.
//    Its slots are raw word pairs used through std::atomic_ref, as the log
//    is, and an all-zero slot is empty, so its pages fault in as applied.
//
// Commit protocol (log-then-fence-then-apply), one kill point per phase:
//
//     kill(path.before_log)
//     append data record to the lane; n+1 pwb (record header + n pairs)
//     kill(path.after_log)
//     pfence; draw seq, append commit marker to the lane, pwb; pfence
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
// The region is one shared ZeroMapping (core/mapping.h): a forked child's
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
#include <new>
#include <span>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "core/cell.h"
#include "core/mapping.h"
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

/// Source of PersistentDomain ids, which key the per-thread log lanes: a
/// lane left over from a destroyed domain never matches a new one.
inline std::atomic<std::uint64_t> g_next_domain_id{1};

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
    // Flight-recorder dump before the simulated power failure: _Exit skips
    // every destructor, so this hook is the trace's only way out.
    trace::anomaly(armed);
    std::_Exit(kKillExitCode);
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
  // Log record words: header = (tag << 56) | low, where low is a data
  // record's entry count or a marker's record position. A data record's
  // second word is its own log position, then entry-count * (addr, value)
  // pairs. A marker's second word is its seq.
  static constexpr std::uint64_t kDataTag = 0xD1;
  static constexpr std::uint64_t kMarkTag = 0xC2;
  static constexpr std::uint64_t kTagShift = 56;
  static constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kTagShift) - 1;
  // A chunk's first word: (span << kSpanShift) | words used, header included.
  static constexpr std::uint64_t kSpanShift = 40;
  static constexpr std::uint64_t kUsedMask = (std::uint64_t{1} << kSpanShift) - 1;

  struct Header {
    // The marker seq, drawn once per commit: a line of its own.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> next_seq{1};
    // Chunks claimed so far (about one claim per lane per 1,000 commits)
    // and the sticky overflow flag every append reads.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> chunk_cursor{0};
    std::atomic<std::uint32_t> log_overflow{0};
    // Fence tallies: every slot on its own line, so no counter shares one
    // with the append state or with another thread's slot.
    ShardedCounter pwb;
    ShardedCounter pfence;
    ShardedCounter psync;
  };
  static_assert(offsetof(Header, chunk_cursor) >= kCacheLineBytes,
                "the marker seq must own its cache line");
  static_assert(offsetof(Header, pwb) >= offsetof(Header, chunk_cursor) + kCacheLineBytes,
                "the chunk cursor must not share a line with the tallies");

  struct ImageSlot {
    std::uint64_t addr;  ///< 0 = empty
    TmWord value;
  };

  /// The calling thread's append position: one lane per thread, keyed to
  /// the domain it last appended to. An append to another domain abandons
  /// it and claims a fresh span there.
  struct Lane {
    std::uint64_t domain = 0;  ///< id_ of the domain appended to; 0 = none
    std::uint64_t start = 0;   ///< log position of the span's header word
    std::uint64_t used = 0;    ///< words of the span in use, header included
    std::uint64_t limit = 0;   ///< words the span holds, clamped to the log's end
    std::uint64_t span = 0;    ///< the header word's span bits
  };

 public:
  /// Lane chunk: 64 KiB of log, claimed and faulted in at once.
  static constexpr std::size_t kPopulateChunkWords = (std::size_t{64} << 10) / sizeof(std::uint64_t);
  /// Durable-image table slots (a power of two).
  static constexpr std::size_t kImageSlots = std::size_t{1} << 16;

  explicit PersistentDomain(const PmemConfig& cfg = {})
      : cfg_(cfg),
        map_(sizeof(Header) + kImageSlots * sizeof(ImageSlot) +
                 cfg.log_words * sizeof(std::uint64_t),
             /*shared=*/true),
        id_(pmem::g_next_domain_id.fetch_add(1, std::memory_order_relaxed)),
        image_(map_.at<ImageSlot>(sizeof(Header))),
        log_(reinterpret_cast<std::uint64_t*>(image_ + kImageSlots)) {
    new (map_.at<Header>()) Header();
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
  /// Phase 1: append the data record to the calling thread's lane (one
  /// pwb per element, counted once the record is appended). `entries`
  /// elements expose `.cell` and `.value`. Returns the record's log
  /// position, which the marker names — 0, never a record's position (a
  /// chunk header lives there), once the log is full.
  template <class Entries>
  std::uint64_t durable_log(const Entries& entries, const char* path) {
    pmem::kill_point(path, "before_log");
    const std::size_t n = std::size(entries);
    const std::uint64_t words = 2 + 2 * static_cast<std::uint64_t>(n);
    Lane& l = lane();
    std::uint64_t* rec = lane_reserve(l, words);
    if (rec == nullptr) return 0;
    const auto pos = static_cast<std::uint64_t>(rec - log_);
    rec[0] = (kDataTag << kTagShift) | static_cast<std::uint64_t>(n);
    rec[1] = pos;
    std::size_t i = 2;
    for (const auto& e : entries) {
      rec[i] = reinterpret_cast<std::uintptr_t>(e.cell);
      rec[i + 1] = e.value;
      i += 2;
    }
    lane_publish(l, words);
    pwb(n + 1);  // the record header plus one write-back per logged pair
    return pos;
  }

  /// Phase 2: persist the commit marker for the record at `record` — the
  /// durability point. Its seq is drawn here, under the caller's conflict
  /// locks. Everything logged before is fenced ahead of the marker, the
  /// marker ahead of the apply.
  void durable_mark(std::uint64_t record) {
    Lane& l = lane();
    std::uint64_t* rec = lane_reserve(l, 2);
    if (rec != nullptr) {
      rec[0] = (kMarkTag << kTagShift) | (record & kCountMask);
      rec[1] = header().next_seq.fetch_add(1, std::memory_order_relaxed);
      lane_publish(l, 2);
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
  /// across the whole step, so seq order is serialization order and no
  /// reader sees a value before it is durably marked; it releases them
  /// after.
  template <class Entries, class Publish>
  void persist(const Entries& entries, const char* path, trace::TraceRing* ring,
               Publish&& publish) {
    const std::uint64_t t0 = rdtsc();
    const std::uint64_t record = durable_log(entries, path);
    const std::uint64_t t1 = rdtsc();
    trace::durable_phase(ring, trace::EventKind::kDurLog, t1 - t0);
    pmem::kill_point(path, "after_log");
    durable_mark(record);
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
    ImageSlot* slot = image_slot(reinterpret_cast<std::uintptr_t>(addr), /*claim=*/false);
    if (slot != nullptr) *out = as_atomic(slot->value).load(std::memory_order_acquire);
    return slot != nullptr;
  }

  /// The image's slots as bytes (tests count its resident pages).
  [[nodiscard]] std::span<const std::byte> image_bytes() const {
    return std::as_bytes(std::span<const ImageSlot>(image_, kImageSlots));
  }

  /// Visits every (addr, value) pair in the durable image.
  template <class Visitor>
  void for_each_image(Visitor&& visit) const {
    for (std::size_t i = 0; i < kImageSlots; ++i) {
      const std::uint64_t a = as_atomic(image_[i].addr).load(std::memory_order_acquire);
      if (a != 0) visit(a, as_atomic(image_[i].value).load(std::memory_order_acquire));
    }
  }

  // ------------------------------------------------------------ recovery --
  struct RecoveredEntry {
    std::uint64_t addr;
    TmWord value;
  };
  /// One durably committed transaction, `entries` in log order. The vector
  /// recover_log() returns is sorted by seq — the serialization order
  /// recovery must replay in.
  struct RecoveredTxn {
    std::uint64_t seq;         ///< its marker's seq
    std::uint64_t record;      ///< the record's log position (durable_log's return)
    std::uint64_t marker_pos;  ///< the marker's log position
    std::vector<RecoveredEntry> entries;
  };
  struct RecoveryStats {
    std::size_t committed = 0;  ///< marked transactions (replayed)
    std::size_t discarded = 0;  ///< logged but unmarked (dropped)
    std::size_t entries_applied = 0;
  };

  /// Scans every claimed chunk up to its header's count: committed
  /// transactions (data record + marker) sorted by seq, plus the discard
  /// count. Read-only; safe after a crash. Chunks are walked in log order,
  /// so the records found so far are sorted by position and a marker finds
  /// its record by binary search among them: a marker matches only a
  /// record start found at a lower position, so a marker naming 0, a
  /// position past the log, the middle of a record or a record after it
  /// stays unmatched.
  [[nodiscard]] std::vector<RecoveredTxn> recover_log(std::size_t* discarded = nullptr) const {
    std::vector<RecoveredTxn> seen;  // data records in log order; marker_pos 0 = unmarked
    const std::uint64_t chunks = claimed_chunks();
    for (std::uint64_t c = 0; c < chunks;) {
      const std::uint64_t start = c * kPopulateChunkWords;
      const std::uint64_t word = as_atomic(log_[start]).load(std::memory_order_acquire);
      const std::uint64_t end =
          std::min<std::uint64_t>(start + (word & kUsedMask), cfg_.log_words);
      std::uint64_t pos = start + 1;
      while (pos + 2 <= end) {
        const std::uint64_t tag = log_[pos] >> kTagShift;
        const std::uint64_t low = log_[pos] & kCountMask;
        if (tag == kDataTag && low <= (end - pos - 2) / 2 && log_[pos + 1] == pos) {
          RecoveredTxn t{0, pos, 0, {}};
          t.entries.reserve(static_cast<std::size_t>(low));
          for (std::uint64_t i = 0; i < low; ++i) {
            t.entries.push_back({log_[pos + 2 + 2 * i], log_[pos + 3 + 2 * i]});
          }
          seen.push_back(std::move(t));
          pos += 2 + 2 * low;
        } else if (tag == kMarkTag) {
          // A commit's marker usually follows its record in the lane.
          auto it = seen.empty() || seen.back().record != low
                        ? std::lower_bound(seen.begin(), seen.end(), low,
                                           [](const RecoveredTxn& t, std::uint64_t p) {
                                             return t.record < p;
                                           })
                        : seen.end() - 1;
          if (it != seen.end() && it->record == low) {
            it->seq = log_[pos + 1];
            it->marker_pos = pos;
          }
          pos += 2;
        } else {
          break;  // unparseable word: nothing after it in this chunk is reachable
        }
      }
      c += std::max<std::uint64_t>(word >> kSpanShift, 1);
    }
    std::vector<std::pair<std::uint64_t, std::size_t>> order;  // (seq, index in seen)
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i].marker_pos != 0) order.emplace_back(seen[i].seq, i);
    }
    std::sort(order.begin(), order.end());
    std::vector<RecoveredTxn> committed;
    committed.reserve(order.size());
    for (const auto& [seq, i] : order) committed.push_back(std::move(seen[i]));
    if (discarded != nullptr) *discarded = seen.size() - committed.size();
    return committed;
  }

  /// Full recovery: replay every marked transaction into the durable image
  /// in seq order (idempotent redo — repairs a crash mid-apply). Fence
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

  /// Log words claimed by lanes, and so faulted in (or the advice was
  /// unavailable): whole chunks, clamped to the log's end.
  [[nodiscard]] std::uint64_t log_populated() const {
    return std::min<std::uint64_t>(claimed_chunks() * kPopulateChunkWords, cfg_.log_words);
  }

 private:
  [[nodiscard]] Header& header() { return *map_.at<Header>(); }
  [[nodiscard]] const Header& header() const { return *map_.at<const Header>(); }

  /// A log or image word, accessed atomically in place.
  static std::atomic_ref<std::uint64_t> as_atomic(std::uint64_t& w) {
    return std::atomic_ref<std::uint64_t>(w);
  }

  static Lane& lane() {
    static thread_local Lane l;
    return l;
  }

  /// Chunks the cursor has handed out, clamped to the log's end (an
  /// overflowing claim moves the cursor past it).
  [[nodiscard]] std::uint64_t claimed_chunks() const {
    const std::uint64_t in_log =
        (cfg_.log_words + kPopulateChunkWords - 1) / kPopulateChunkWords;
    return std::min(header().chunk_cursor.load(std::memory_order_relaxed), in_log);
  }

  /// Room for `words` more words at the end of `l`, claiming a new span
  /// when the lane's is full or keyed to another domain; nullptr once the
  /// log has overflowed. Overflow is sticky and stops every lane, not only
  /// the one that hit the end: a commit serialized after one the log could
  /// not hold must not become durable either (the simulation does not
  /// checkpoint).
  [[nodiscard]] std::uint64_t* lane_reserve(Lane& l, std::uint64_t words) {
    if (log_overflowed()) return nullptr;
    if ((l.domain != id_ || l.used + words > l.limit) && !claim(l, words)) return nullptr;
    return log_ + l.start + l.used;
  }

  /// Publishes the `words` just written at the lane's end: one release
  /// store of the span's header word, after which recovery sees them.
  void lane_publish(Lane& l, std::uint64_t words) {
    l.used += words;
    as_atomic(log_[l.start]).store(l.span | l.used, std::memory_order_release);
  }

  /// Claims the chunks for one `words`-word append plus the header word
  /// with one fetch_add on the cursor, faults them in and writes the
  /// span's header. False (and the log overflows) when they do not fit.
  bool claim(Lane& l, std::uint64_t words) {
    const std::uint64_t chunks = (words + kPopulateChunkWords) / kPopulateChunkWords;
    const std::uint64_t first = header().chunk_cursor.fetch_add(chunks, std::memory_order_relaxed);
    const std::uint64_t start = first * kPopulateChunkWords;
    const std::uint64_t stop =
        std::min<std::uint64_t>((first + chunks) * kPopulateChunkWords, cfg_.log_words);
    if (start >= stop || stop - start < words + 1) {
      if (header().log_overflow.exchange(1, std::memory_order_relaxed) == 0) {
        trace::anomaly("redo_log_overflow");  // first transition only
      }
      return false;
    }
#if defined(MADV_POPULATE_WRITE)
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto begin = reinterpret_cast<std::uintptr_t>(log_ + start) & ~(page - 1);
    const auto end = reinterpret_cast<std::uintptr_t>(log_ + stop);
    (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_POPULATE_WRITE);
#endif
    l = {id_, start, 1, stop - start, chunks << kSpanShift};
    as_atomic(log_[start]).store(l.span | 1, std::memory_order_relaxed);
    // The crash model is process death, which loses no store already
    // made: the span must be written before any record word of the span,
    // so recovery never reads a later chunk of it as a chunk header.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return true;
  }

  /// The slot holding `key` on its linear-probe path; when `claim`, the
  /// first empty slot on it is claimed for `key`. Null when absent.
  [[nodiscard]] ImageSlot* image_slot(std::uint64_t key, bool claim) const {
    const std::size_t mask = kImageSlots - 1;
    std::size_t i = static_cast<std::size_t>(key * 0x9e3779b97f4a7c15ull >> 32) & mask;
    for (std::size_t probes = 0; probes < kImageSlots; ++probes, i = (i + 1) & mask) {
      std::uint64_t a = as_atomic(image_[i].addr).load(std::memory_order_acquire);
      if (a == 0) {
        if (!claim) return nullptr;
        (void)as_atomic(image_[i].addr).compare_exchange_strong(a, key, std::memory_order_acq_rel);
        if (a == 0) a = key;  // claimed it; on failure `a` is the winner's key
      }
      if (a == key) return &image_[i];
    }
    return nullptr;
  }

  void image_store(std::uint64_t key, TmWord value) {
    ImageSlot* slot = image_slot(key, /*claim=*/true);
    if (slot == nullptr) {
      std::fprintf(stderr, "pmem: durable image full (%zu slots)\n", kImageSlots);
      std::abort();
    }
    as_atomic(slot->value).store(value, std::memory_order_release);
  }

  PmemConfig cfg_;
  ZeroMapping map_;   ///< header, then image, then log
  std::uint64_t id_;  ///< keys the per-thread lanes (pmem::g_next_domain_id)
  ImageSlot* image_;
  std::uint64_t* log_;
};

}  // namespace rhtm
