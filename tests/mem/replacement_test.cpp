#include "mem/replacement.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace lpm::mem {
namespace {

TEST(Replacement, LruEvictsLeastRecentlyUsed) {
  ReplacementTable st(ReplacementPolicy::kLru, 1, 4);
  util::Rng rng(1);
  st.fill(0, 0, 1);
  st.fill(0, 1, 2);
  st.fill(0, 2, 3);
  st.fill(0, 3, 4);
  st.touch(0, 0, 5);  // way 1 is now LRU
  EXPECT_EQ(st.victim(0, rng), 1u);
  st.touch(0, 1, 6);
  EXPECT_EQ(st.victim(0, rng), 2u);
}

TEST(Replacement, FifoIgnoresTouches) {
  ReplacementTable st(ReplacementPolicy::kFifo, 1, 4);
  util::Rng rng(1);
  st.fill(0, 0, 1);
  st.fill(0, 1, 2);
  st.fill(0, 2, 3);
  st.fill(0, 3, 4);
  st.touch(0, 0, 99);  // touching must not rescue way 0 under FIFO
  EXPECT_EQ(st.victim(0, rng), 0u);
  st.fill(0, 0, 5);
  EXPECT_EQ(st.victim(0, rng), 1u);
}

TEST(Replacement, RandomIsInRangeAndCoversWays) {
  ReplacementTable st(ReplacementPolicy::kRandom, 1, 4);
  util::Rng rng(7);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    const auto v = st.victim(0, rng);
    ASSERT_LT(v, 4u);
    seen[v] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Replacement, PlruTracksRecency) {
  ReplacementTable st(ReplacementPolicy::kPlru, 1, 4);
  util::Rng rng(1);
  st.fill(0, 0, 1);
  st.fill(0, 1, 2);
  st.fill(0, 2, 3);
  st.fill(0, 3, 4);
  // After touching 0 and 1, the victim must come from {2, 3}.
  st.touch(0, 0, 5);
  st.touch(0, 1, 6);
  const auto v = st.victim(0, rng);
  EXPECT_TRUE(v == 2u || v == 3u);
  // Touch 2 and 3: victim must come from {0, 1}.
  st.touch(0, 2, 7);
  st.touch(0, 3, 8);
  const auto w = st.victim(0, rng);
  EXPECT_TRUE(w == 0u || w == 1u);
}

TEST(Replacement, PlruNonPow2FallsBackToLru) {
  ReplacementTable st(ReplacementPolicy::kPlru, 1, 3);
  util::Rng rng(1);
  st.fill(0, 0, 1);
  st.fill(0, 1, 2);
  st.fill(0, 2, 3);
  st.touch(0, 0, 4);
  EXPECT_EQ(st.victim(0, rng), 1u);
}

TEST(Replacement, DirectMappedAlwaysWayZero) {
  ReplacementTable st(ReplacementPolicy::kLru, 1, 1);
  util::Rng rng(1);
  EXPECT_EQ(st.victim(0, rng), 0u);
}

TEST(Replacement, BadWayThrows) {
  ReplacementTable st(ReplacementPolicy::kLru, 1, 2);
  EXPECT_THROW(st.touch(0, 2, 1), util::LpmError);
  EXPECT_THROW(st.fill(0, 5, 1), util::LpmError);
}

TEST(Replacement, SetsAreIndependent) {
  // Set 0 takes touches, fills and victim searches (SRRIP ages in place);
  // set 1 must name the same victims as in a table where set 0 is idle.
  for (const auto p : {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
                       ReplacementPolicy::kRandom, ReplacementPolicy::kPlru,
                       ReplacementPolicy::kSrrip}) {
    for (const std::uint32_t ways : {3u, 4u, 16u}) {
      ReplacementTable busy(p, 2, ways);
      ReplacementTable quiet(p, 2, ways);
      util::Rng pick(ways);
      std::uint64_t tick = 0;
      for (std::uint32_t w = 0; w < ways; ++w) {
        busy.fill(1, w, ++tick);
        quiet.fill(1, w, tick);
      }
      for (std::uint64_t step = 0; step < 200; ++step) {
        const auto w0 = static_cast<std::uint32_t>(pick.next_below(ways));
        if (step % 3 == 0) {
          busy.fill(0, w0, ++tick);
        } else {
          busy.touch(0, w0, ++tick);
        }
        util::Rng noise(step);
        (void)busy.victim(0, noise);

        const auto w1 = static_cast<std::uint32_t>(pick.next_below(ways));
        busy.touch(1, w1, ++tick);
        quiet.touch(1, w1, tick);
        util::Rng a(step);
        util::Rng b(step);
        const std::uint32_t v = busy.victim(1, a);
        ASSERT_EQ(v, quiet.victim(1, b))
            << to_string(p) << " ways=" << ways << " step=" << step;
        busy.fill(1, v, ++tick);
        quiet.fill(1, v, tick);
      }
    }
  }
}

TEST(Replacement, TableStoresOnlyWhatThePolicyReads) {
  // The shared LLC of MachineConfig::nuca16(): 8 MiB, 64 B blocks, 16 ways.
  constexpr std::uint64_t kSets = 8192;
  constexpr std::uint64_t kLines = kSets * 16;
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kLru, kSets, 16).bytes(), kLines * 8);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kFifo, kSets, 16).bytes(), kLines * 8);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kPlru, kSets, 16).bytes(), kSets * 15);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kSrrip, kSets, 16).bytes(), kLines);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kRandom, kSets, 16).bytes(), 0u);
  // PLRU falls back to LRU stamps at non-power-of-two ways; a one-way tree
  // has no nodes.
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kPlru, kSets, 3).bytes(), kSets * 3 * 8);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kPlru, kSets, 1).bytes(), 0u);
  EXPECT_EQ(ReplacementTable(ReplacementPolicy::kLru, kSets, 1).bytes(), kSets * 8);
}

TEST(Replacement, StringRoundTrip) {
  for (const auto p : {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
                       ReplacementPolicy::kRandom, ReplacementPolicy::kPlru}) {
    EXPECT_EQ(replacement_from_string(to_string(p)), p);
  }
  EXPECT_THROW(replacement_from_string("mru"), util::LpmError);
}

}  // namespace
}  // namespace lpm::mem
