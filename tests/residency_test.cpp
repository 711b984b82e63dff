// Metadata faults in as it is used: counts resident pages with mincore(2)
// over the stripe table's version words and read masks and over the
// durable image. Nothing is resident after construction, an RH1
// transaction makes only the pages of its own stripes resident (and no
// mask page), and a visible-read (RH2) transaction makes its read stripes'
// mask pages resident.

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

std::uintptr_t page_size() { return static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE)); }

std::uintptr_t page_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~(page_size() - 1);
}

/// Resident pages among the whole pages inside [p, p + bytes): a page the
/// range shares with a neighbour (the durable image's first page holds
/// the end of the domain's header) is not counted.
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const std::uintptr_t page = page_size();
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = (at + page - 1) & ~(page - 1);
  const std::uintptr_t end = (at + bytes) & ~(page - 1);
  if (end <= begin) return 0;
  std::vector<unsigned char> vec((end - begin) / page);
  CHECK_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

std::size_t word_pages(StripeTable& st) {
  return resident_pages(&st.word(0), st.count() * sizeof(TmCell));
}
std::size_t mask_pages(StripeTable& st) {
  return resident_pages(&st.read_mask(0), st.count() * sizeof(TmCell));
}
std::size_t total_pages(StripeTable& st) { return st.count() * sizeof(TmCell) / page_size(); }

void nothing_resident_after_construction() {
  StripeTable st;
  CHECK(total_pages(st) > 1);
  CHECK_EQ(word_pages(st), 0u);
  CHECK_EQ(mask_pages(st), 0u);

  TmUniverse<HtmSim> u;
  CHECK_EQ(word_pages(u.stripes()), 0u);
  CHECK_EQ(mask_pages(u.stripes()), 0u);

  UniverseConfig ucfg;
  ucfg.durable = true;
  TmUniverse<HtmSim> durable(ucfg);
  CHECK_EQ(word_pages(durable.stripes()), 0u);
  CHECK_EQ(mask_pages(durable.stripes()), 0u);
  const auto image = durable.pmem().image_bytes();
  CHECK(image.size() > 2 * page_size());
  CHECK_EQ(resident_pages(image.data(), image.size()), 0u);
}

void rh1_faults_only_its_stripes() {
  TmUniverse<HtmSim> u;
  // The bound is in base pages: keep a host's transparent-huge-page policy
  // from faulting a large folio in on one touch.
  (void)madvise(&u.stripes().word(0), 2 * u.stripes().count() * sizeof(TmCell), MADV_NOHUGEPAGE);
  HybridTm<HtmSim> tm(u);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> data(8);
  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (std::size_t i = 0; i < 4; ++i) sum += data[i].read(tx);
    for (std::size_t i = 4; i < 8; ++i) data[i].write(tx, sum + i);
  });
  CHECK_EQ(ctx.stats.commits, 1u);

  StripeTable& st = u.stripes();
  std::set<std::uintptr_t> touched;  // pages of every stripe the transaction could touch
  for (const auto& d : data) touched.insert(page_of(&st.word(st.index_of(&d.cell()))));
  const std::size_t resident = word_pages(st);
  CHECK(resident >= 1);  // the written stripes were stamped
  CHECK(resident <= touched.size());
  // Every resident word page is one of the touched ones.
  std::size_t resident_touched = 0;
  for (const std::uintptr_t p : touched) {
    resident_touched += resident_pages(reinterpret_cast<const void*>(p), page_size());
  }
  CHECK_EQ(resident_touched, resident);
  CHECK_EQ(mask_pages(st), 0u);
}

void rh2_faults_its_read_masks() {
  TmUniverse<HtmSim> u;
  HybridTm<HtmSim>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<HtmSim> tm(u, cfg);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> data(8);
  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (std::size_t i = 0; i < 4; ++i) sum += data[i].read(tx);
    data[7].write(tx, sum + 1);
  });
  CHECK_EQ(ctx.stats.commits, 1u);

  StripeTable& st = u.stripes();
  std::set<std::uintptr_t> read_masks;
  for (std::size_t i = 0; i < 4; ++i) {
    read_masks.insert(page_of(&st.read_mask(st.index_of(&data[i].cell()))));
  }
  for (const std::uintptr_t p : read_masks) {
    CHECK_EQ(resident_pages(reinterpret_cast<const void*>(p), page_size()), 1u);
  }
  CHECK(mask_pages(st) >= read_masks.size());
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"nothing_resident_after_construction",
               rhtm::nothing_resident_after_construction},
      TestCase{"rh1_faults_only_its_stripes", rhtm::rh1_faults_only_its_stripes},
      TestCase{"rh2_faults_its_read_masks", rhtm::rh2_faults_its_read_masks},
  });
}
