#include "mem/mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lpm::mem {
namespace {

MshrTarget target(RequestId id) {
  MshrTarget t;
  t.id = id;
  t.kind = AccessKind::kRead;
  return t;
}

TEST(Mshr, AllocateFindRelease) {
  MshrFile f(2, 4);
  EXPECT_TRUE(f.can_allocate());
  const auto idx = f.allocate(0x1000, target(1), 5);
  EXPECT_EQ(f.in_use(), 1u);
  ASSERT_TRUE(f.find(0x1000).has_value());
  EXPECT_EQ(*f.find(0x1000), idx);
  EXPECT_FALSE(f.find(0x2000).has_value());
  const auto targets = f.release(idx);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].id, 1u);
  EXPECT_EQ(f.in_use(), 0u);
  EXPECT_FALSE(f.find(0x1000).has_value());
}

TEST(Mshr, CoalescingUpToTargetLimit) {
  MshrFile f(1, 3);
  const auto idx = f.allocate(0x40, target(1), 0);
  EXPECT_TRUE(f.can_add_target(idx));
  f.add_target(idx, target(2));
  f.add_target(idx, target(3));
  EXPECT_FALSE(f.can_add_target(idx));
  EXPECT_THROW(f.add_target(idx, target(4)), util::LpmError);
  EXPECT_EQ(f.outstanding_targets(), 3u);
}

TEST(Mshr, ExhaustionBlocksAllocation) {
  MshrFile f(2, 2);
  f.allocate(0x0, target(1), 0);
  f.allocate(0x40, target(2), 0);
  EXPECT_FALSE(f.can_allocate());
  EXPECT_THROW(f.allocate(0x80, target(3), 0), util::LpmError);
}

TEST(Mshr, DuplicateBlockAllocationThrows) {
  MshrFile f(2, 2);
  f.allocate(0x40, target(1), 0);
  EXPECT_THROW(f.allocate(0x40, target(2), 0), util::LpmError);
}

TEST(Mshr, ReleaseRecyclesEntries) {
  MshrFile f(1, 2);
  const auto a = f.allocate(0x0, target(1), 0);
  f.release(a);
  EXPECT_TRUE(f.can_allocate());
  const auto b = f.allocate(0x40, target(2), 1);
  EXPECT_TRUE(f.find(0x40).has_value());
  EXPECT_EQ(f.entry(b).allocated, 1u);
}

TEST(Mshr, ValidEntriesEnumerates) {
  MshrFile f(4, 2);
  f.allocate(0x0, target(1), 0);
  f.allocate(0x40, target(2), 0);
  const auto v = f.valid_entries();
  EXPECT_EQ(v.size(), 2u);
}

TEST(Mshr, IssueFlagPersists) {
  MshrFile f(2, 2);
  const auto idx = f.allocate(0x0, target(1), 0);
  EXPECT_FALSE(f.entry(idx).issued);
  f.entry(idx).issued = true;
  EXPECT_TRUE(f.entry(idx).issued);
  f.release(idx);
  const auto idx2 = f.allocate(0x80, target(2), 1);
  EXPECT_FALSE(f.entry(idx2).issued);  // reset on reallocation
}

TEST(Mshr, AllocationReturnsLowestFreeIndexAfterOutOfOrderReleases) {
  // A cache issues its pending fills in entry-index order, so which index
  // an allocation gets is observable behaviour.
  MshrFile f(70, 2);  // two bitmask words
  for (std::uint32_t i = 0; i < 70; ++i) {
    ASSERT_EQ(f.allocate(0x40 * (i + 1), target(i), 0), i);
  }
  f.release(66);
  f.release(5);
  f.release(64);
  f.release(2);
  EXPECT_EQ(f.allocate(0x10000, target(100), 1), 2u);
  EXPECT_EQ(f.allocate(0x10040, target(101), 1), 5u);
  EXPECT_EQ(f.allocate(0x10080, target(102), 1), 64u);
  EXPECT_EQ(f.allocate_prefetch(0x100c0, 1), 66u);
  EXPECT_FALSE(f.can_allocate());
  EXPECT_EQ(*f.find(0x10080), 64u);
  EXPECT_EQ(*f.find(0x100c0), 66u);
  EXPECT_FALSE(f.find(0x40 * 67).has_value());  // entry 66's old block
}

TEST(Mshr, NextValidWalksValidEntriesInIndexOrder) {
  MshrFile f(130, 1);
  EXPECT_EQ(f.next_valid(0), 130u);
  for (std::uint32_t i = 0; i < 130; ++i) f.allocate(0x40 * i, target(i), 0);
  for (std::uint32_t i = 0; i < 130; ++i) {
    if (i != 3 && i != 63 && i != 64 && i != 127) f.release(i);
  }
  std::vector<std::uint32_t> walked;
  for (std::uint32_t i = f.next_valid(0); i < f.capacity(); i = f.next_valid(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, (std::vector<std::uint32_t>{3, 63, 64, 127}));
  EXPECT_EQ(f.valid_entries(), walked);
  EXPECT_EQ(f.next_valid(128), 130u);
  EXPECT_EQ(f.next_valid(500), 130u);
}

TEST(Mshr, RandomChurnMatchesMapModel) {
  // Allocate / coalesce / release at random over a small block universe,
  // so the index sees collisions, deletions inside probe clusters and a
  // full table; a std::map of block -> (entry, targets) is the model.
  for (const std::uint32_t capacity : {1u, 3u, 16u, 64u, 65u, 100u}) {
    MshrFile f(capacity, 3);
    std::map<Addr, std::pair<std::uint32_t, std::uint32_t>> model;
    std::set<std::uint32_t> free_idx;
    for (std::uint32_t i = 0; i < capacity; ++i) free_idx.insert(i);
    util::Rng rng(capacity);
    const std::uint64_t universe = 2ull * capacity + 3;
    RequestId next_id = 1;
    for (int step = 0; step < 20000; ++step) {
      const Addr blk = 0x40 * rng.next_below(universe) + 0x100000;
      const auto it = model.find(blk);
      const std::optional<std::uint32_t> found = f.find(blk);
      ASSERT_EQ(found.has_value(), it != model.end()) << "step " << step;
      if (found) {
        ASSERT_EQ(*found, it->second.first);
        ASSERT_EQ(f.entry(*found).block_addr, blk);
      }
      const std::uint64_t op = rng.next_below(3);
      if (op == 0 && it == model.end()) {
        ASSERT_EQ(f.can_allocate(), !free_idx.empty());
        if (free_idx.empty()) {
          EXPECT_THROW(f.allocate(blk, target(next_id++), 0), util::LpmError);
          continue;
        }
        const std::uint32_t want = *free_idx.begin();
        free_idx.erase(free_idx.begin());
        ASSERT_EQ(f.allocate(blk, target(next_id++), 0), want);
        model[blk] = {want, 1};
      } else if (op == 0) {
        EXPECT_THROW(f.allocate_prefetch(blk, 0), util::LpmError);
      } else if (op == 1 && it != model.end()) {
        const bool room = it->second.second < 3;
        ASSERT_EQ(f.can_add_target(it->second.first), room);
        if (room) {
          f.add_target(it->second.first, target(next_id++));
          ++it->second.second;
        }
      } else if (op == 2 && it != model.end()) {
        const auto targets = f.release(it->second.first);
        ASSERT_EQ(targets.size(), it->second.second);
        free_idx.insert(it->second.first);
        model.erase(it);
      }
      ASSERT_EQ(f.in_use(), model.size());
    }
    std::vector<std::uint32_t> expect_valid;
    for (const auto& [blk, rec] : model) expect_valid.push_back(rec.first);
    std::sort(expect_valid.begin(), expect_valid.end());
    EXPECT_EQ(f.valid_entries(), expect_valid) << "capacity " << capacity;
  }
}

TEST(Mshr, InvalidConstructionThrows) {
  EXPECT_THROW(MshrFile(0, 1), util::LpmError);
  EXPECT_THROW(MshrFile(1, 0), util::LpmError);
}

TEST(Mshr, ReleaseInvalidThrows) {
  MshrFile f(2, 2);
  EXPECT_THROW(f.release(0), util::LpmError);
}

}  // namespace
}  // namespace lpm::mem
