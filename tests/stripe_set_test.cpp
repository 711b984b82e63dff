// IndexedSet, over both key types it is instantiated with (stripe indices
// and cell addresses): exact dedup semantics (insert/contains/items), dense
// indices that survive growth, O(1) epoch clears across many reuse rounds,
// growth keeping membership exact, and agreement with reference containers
// under randomized operation streams.

#include <algorithm>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/cell.h"
#include "core/indexed_set.h"
#include "core/rng.h"
#include "test_common.h"

namespace rhtm {
namespace {

constexpr std::uint32_t kKeySpace = 16384;

/// The `i`-th key of type `Key`: `i` itself, or the address of the `i`-th
/// cell of one shared array (adjacent keys are adjacent cells).
template <class Key>
Key key(std::uint32_t i) {
  if constexpr (std::is_pointer_v<Key>) {
    static std::vector<TmCell> pool(kKeySpace);
    return &pool.at(i);
  } else {
    return i;
  }
}

template <class Key>
void insert_dedups_and_orders() {
  IndexedSet<Key> s;
  CHECK(s.empty());
  CHECK(s.insert(key<Key>(7)).fresh);
  CHECK(!s.insert(key<Key>(7)).fresh);  // duplicate: rejected
  CHECK(s.insert(key<Key>(3)).fresh);
  CHECK(s.insert(key<Key>(7000)).fresh);
  CHECK(!s.insert(key<Key>(3)).fresh);
  CHECK_EQ(s.size(), 3u);
  CHECK(s.contains(key<Key>(7)));
  CHECK(s.contains(key<Key>(3)));
  CHECK(s.contains(key<Key>(7000)));
  CHECK(!s.contains(key<Key>(8)));
  // items() preserves first-insertion order — the commit paths rely on a
  // deterministic iteration order for the stamped stripes.
  const std::vector<Key> expect = {key<Key>(7), key<Key>(3), key<Key>(7000)};
  CHECK(s.items() == expect);
}

template <class Key>
void clear_is_cheap_and_complete() {
  IndexedSet<Key> s;
  for (std::uint32_t round = 0; round < 10000; ++round) {  // far past any u8/u16 epoch
    CHECK(s.insert(key<Key>(round)).fresh);
    CHECK(s.insert(key<Key>(round + 1)).fresh);
    CHECK_EQ(s.size(), 2u);
    s.clear();
    CHECK(s.empty());
    CHECK(!s.contains(key<Key>(round)));
  }
}

template <class Key>
void growth_keeps_membership_exact() {
  IndexedSet<Key> s;
  // Consecutive keys — the worst case for a multiplicative probe — well
  // past the initial slot count, forcing several grow() rehashes.
  for (std::uint32_t i = 0; i < 5000; ++i) CHECK(s.insert(key<Key>(i * 3)).fresh);
  CHECK_EQ(s.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    CHECK(s.contains(key<Key>(i * 3)));
    CHECK(!s.contains(key<Key>(i * 3 + 1)));
  }
  // Still duplicates after growing.
  for (std::uint32_t i = 0; i < 5000; ++i) CHECK(!s.insert(key<Key>(i * 3)).fresh);
  CHECK_EQ(s.size(), 5000u);
}

/// The index handed out at insertion is the key's items() position, and
/// neither later inserts nor several grows (64 -> 8192 slots) move it.
template <class Key>
void index_is_position_across_growth() {
  IndexedSet<Key> s;
  for (int round = 0; round < 3; ++round) {
    s.clear();
    for (std::uint32_t i = 0; i < 5000; ++i) {
      const Key k = key<Key>((i * 7 + static_cast<std::uint32_t>(round)) % kKeySpace);
      const auto ins = s.insert(k);
      CHECK(ins.fresh);
      CHECK_EQ(ins.index, i);
      CHECK(s.items()[ins.index] == k);
    }
    for (std::uint32_t i = 0; i < 5000; ++i) {
      const Key k = s.items()[i];
      const auto found = s.find(k);
      CHECK(found.has_value() && *found == i);
      const auto again = s.insert(k);
      CHECK(!again.fresh);
      CHECK_EQ(again.index, i);
    }
  }
}

template <class Key>
void randomized_against_reference() {
  IndexedSet<Key> s;
  std::set<Key> ref;
  Xoshiro256 rng(99);
  for (int round = 0; round < 50; ++round) {
    s.clear();
    ref.clear();
    const int ops = 1 + static_cast<int>(rng.below(800));
    for (int i = 0; i < ops; ++i) {
      const Key k = key<Key>(static_cast<std::uint32_t>(rng.below(512)));
      const bool fresh = ref.insert(k).second;
      CHECK_EQ(s.insert(k).fresh, fresh);
    }
    CHECK_EQ(s.size(), ref.size());
    for (std::uint32_t probe = 0; probe < 512; ++probe) {
      CHECK_EQ(s.contains(key<Key>(probe)), ref.count(key<Key>(probe)) == 1);
    }
    std::vector<Key> sorted_items = s.items();
    std::sort(sorted_items.begin(), sorted_items.end());
    CHECK(std::equal(sorted_items.begin(), sorted_items.end(), ref.begin(), ref.end()));
  }
}

/// find() against a std::unordered_map of key -> first-insertion index on
/// random streams over the whole key space: every member maps to its index,
/// every absent key finds nothing — across clears and growth.
template <class Key>
void find_matches_unordered_map() {
  IndexedSet<Key> s;
  std::unordered_map<Key, std::uint32_t> ref;
  Xoshiro256 rng(4242);
  for (int round = 0; round < 30; ++round) {
    s.clear();
    ref.clear();
    const int ops = 1 + static_cast<int>(rng.below(6000));
    for (int i = 0; i < ops; ++i) {
      const Key k = key<Key>(static_cast<std::uint32_t>(rng.below(kKeySpace)));
      const auto [it, fresh] = ref.emplace(k, static_cast<std::uint32_t>(ref.size()));
      const auto ins = s.insert(k);
      CHECK_EQ(ins.fresh, fresh);
      CHECK_EQ(ins.index, it->second);
    }
    for (std::uint32_t i = 0; i < kKeySpace; ++i) {
      const Key k = key<Key>(i);
      const auto found = s.find(k);
      const auto it = ref.find(k);
      if (it == ref.end()) {
        CHECK(!found.has_value());
      } else {
        CHECK(found.has_value() && *found == it->second);
      }
    }
  }
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::TmCell;
  using rhtm::test::TestCase;
  using u32 = std::uint32_t;
  return rhtm::test::run_tests({
      TestCase{"insert_dedups_and_orders/u32", rhtm::insert_dedups_and_orders<u32>},
      TestCase{"insert_dedups_and_orders/cell", rhtm::insert_dedups_and_orders<TmCell*>},
      TestCase{"clear_is_cheap_and_complete/u32", rhtm::clear_is_cheap_and_complete<u32>},
      TestCase{"clear_is_cheap_and_complete/cell",
               rhtm::clear_is_cheap_and_complete<TmCell*>},
      TestCase{"growth_keeps_membership_exact/u32", rhtm::growth_keeps_membership_exact<u32>},
      TestCase{"growth_keeps_membership_exact/cell",
               rhtm::growth_keeps_membership_exact<TmCell*>},
      TestCase{"index_is_position_across_growth/u32",
               rhtm::index_is_position_across_growth<u32>},
      TestCase{"index_is_position_across_growth/cell",
               rhtm::index_is_position_across_growth<TmCell*>},
      TestCase{"randomized_against_reference/u32", rhtm::randomized_against_reference<u32>},
      TestCase{"randomized_against_reference/cell",
               rhtm::randomized_against_reference<TmCell*>},
      TestCase{"find_matches_unordered_map/u32", rhtm::find_matches_unordered_map<u32>},
      TestCase{"find_matches_unordered_map/cell", rhtm::find_matches_unordered_map<TmCell*>},
  });
}
