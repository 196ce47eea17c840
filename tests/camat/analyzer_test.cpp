#include "camat/analyzer.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace lpm::camat {
namespace {

TEST(Analyzer, SingleHitAccess) {
  Analyzer a;
  a.on_access(1, 0, false);
  a.on_cycle_activity(0, 1);
  a.on_cycle_activity(1, 1);
  a.on_cycle_activity(2, 1);
  a.on_hit(1, 3);
  const auto& m = a.metrics();
  EXPECT_EQ(m.accesses, 1u);
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.misses, 0u);
  EXPECT_DOUBLE_EQ(m.H(), 3.0);
  EXPECT_DOUBLE_EQ(m.CH(), 1.0);
  EXPECT_DOUBLE_EQ(m.camat(), 3.0);
  EXPECT_DOUBLE_EQ(m.camat_eq2(), 3.0);
}

TEST(Analyzer, LoneMissIsPure) {
  Analyzer a;
  a.on_access(1, 0, false);
  a.on_cycle_activity(0, 1);  // hit phase, 1 cycle
  a.on_miss(1, 1);
  a.on_cycle_activity(1, 0);  // pure
  a.on_cycle_activity(2, 0);  // pure
  a.on_miss_done(1, 3);
  const auto& m = a.metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.pure_misses, 1u);
  EXPECT_DOUBLE_EQ(m.pMR(), 1.0);
  EXPECT_DOUBLE_EQ(m.pAMP(), 2.0);
  EXPECT_DOUBLE_EQ(m.CM(), 1.0);
  EXPECT_DOUBLE_EQ(m.AMP(), 2.0);
  EXPECT_DOUBLE_EQ(m.camat(), 3.0);  // 1 hit cycle + 2 pure cycles
}

TEST(Analyzer, MissFullyHiddenByHitsIsNotPure) {
  Analyzer a;
  // Access 1 misses, but access 2 keeps hitting the whole time.
  a.on_access(1, 0, false);
  a.on_access(2, 0, false);
  a.on_cycle_activity(0, 2);
  a.on_miss(1, 1);
  a.on_cycle_activity(1, 1);  // 2 still in lookup
  a.on_cycle_activity(2, 1);
  a.on_hit(2, 3);
  a.on_access(3, 3, false);
  a.on_cycle_activity(3, 1);
  a.on_miss_done(1, 4);
  a.on_hit(3, 4);
  const auto& m = a.metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.pure_misses, 0u);
  EXPECT_DOUBLE_EQ(m.pMR(), 0.0);
  EXPECT_EQ(m.pure_miss_cycles, 0u);
  // C-AMAT equals Eq. 2 even with zero pure misses.
  EXPECT_DOUBLE_EQ(m.camat_eq2(), m.camat());
}

TEST(Analyzer, OverlappingMissesShareConcurrency) {
  Analyzer a;
  a.on_access(1, 0, false);
  a.on_access(2, 0, false);
  a.on_cycle_activity(0, 2);
  a.on_miss(1, 1);
  a.on_miss(2, 1);
  a.on_cycle_activity(1, 0);  // pure, 2 outstanding
  a.on_cycle_activity(2, 0);  // pure, 2 outstanding
  a.on_miss_done(1, 3);
  a.on_cycle_activity(3, 0);  // pure, 1 outstanding
  a.on_miss_done(2, 4);
  const auto& m = a.metrics();
  EXPECT_EQ(m.pure_misses, 2u);
  EXPECT_EQ(m.pure_miss_cycles, 3u);
  EXPECT_EQ(m.pure_access_cycles, 5u);  // 2+2+1
  EXPECT_DOUBLE_EQ(m.CM(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.pAMP(), 2.5);
  EXPECT_DOUBLE_EQ(m.Cm(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.camat_eq2(), m.camat());
}

TEST(Analyzer, UnknownIdsThrow) {
  Analyzer a;
  EXPECT_THROW(a.on_hit(9, 1), util::LpmError);
  EXPECT_THROW(a.on_miss(9, 1), util::LpmError);
  EXPECT_THROW(a.on_miss_done(9, 1), util::LpmError);
}

TEST(Analyzer, IntervalDeltaSplitsCounters) {
  Analyzer a;
  a.on_access(1, 0, false);
  a.on_cycle_activity(0, 1);
  a.on_hit(1, 1);
  const CamatMetrics first = a.interval_delta();
  EXPECT_EQ(first.accesses, 1u);

  a.on_access(2, 2, false);
  a.on_cycle_activity(2, 1);
  a.on_hit(2, 3);
  a.on_access(3, 4, false);
  a.on_cycle_activity(4, 1);
  a.on_hit(3, 5);
  const CamatMetrics second = a.interval_delta();
  EXPECT_EQ(second.accesses, 2u);
  EXPECT_EQ(a.metrics().accesses, 3u);
}

TEST(Analyzer, ResetCountersClearsEverything) {
  Analyzer a;
  a.on_access(1, 0, false);
  a.on_cycle_activity(0, 1);
  a.on_hit(1, 1);
  a.reset_counters();
  EXPECT_EQ(a.metrics().accesses, 0u);
  EXPECT_EQ(a.metrics().active_cycles, 0u);
  EXPECT_EQ(a.hit_phases(), 0u);
}

TEST(Analyzer, ResetDuringOutstandingMissCountsOnlyLaterPureCycles) {
  Analyzer a;
  // Miss 1 sees pure cycles only before the reset; miss 2 also after it.
  a.on_access(1, 0, false);
  a.on_access(2, 0, false);
  a.on_cycle_activity(0, 2);
  a.on_miss(1, 1);
  a.on_miss(2, 1);
  a.on_cycle_activity(1, 0);  // pure
  a.on_cycle_activity(2, 0);  // pure
  a.reset_counters();
  a.on_access(3, 3, false);
  a.on_cycle_activity(3, 1);  // hit activity hides both misses
  a.on_miss_done(1, 4);
  EXPECT_EQ(a.metrics().pure_misses, 0u);
  a.on_hit(3, 4);
  a.on_cycle_activity(4, 0);  // pure, miss 2 only
  a.on_miss_done(2, 5);
  EXPECT_EQ(a.metrics().pure_misses, 1u);
  EXPECT_EQ(a.metrics().pure_miss_cycles, 1u);
  EXPECT_EQ(a.outstanding_misses(), 0u);
}

TEST(Analyzer, CamatNeverExceedsAmatWithConcurrency) {
  // With any hit/miss overlap, C-AMAT <= AMAT (equality when serial).
  Analyzer a;
  // Two parallel accesses, one misses briefly.
  a.on_access(1, 0, false);
  a.on_access(2, 0, false);
  a.on_cycle_activity(0, 2);
  a.on_cycle_activity(1, 2);
  a.on_hit(1, 2);
  a.on_miss(2, 2);
  a.on_cycle_activity(2, 0);
  a.on_miss_done(2, 3);
  const auto& m = a.metrics();
  EXPECT_LE(m.camat(), m.amat());
}

TEST(Analyzer, HitActivityWithoutAccessesIsIgnoredGracefully) {
  Analyzer a;
  // Cycle with no activity at all: nothing should be counted.
  a.on_cycle_activity(0, 0);
  EXPECT_EQ(a.metrics().active_cycles, 0u);
  EXPECT_EQ(a.metrics().hit_cycles, 0u);
}

}  // namespace
}  // namespace lpm::camat
