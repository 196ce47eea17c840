// The MSHR-wait gate: Cache::tick credits a replay pass in bulk while the
// MSHR state every waiting miss failed against is unchanged. The
// differential oracle pins the gate on fuzzed machines, but RefCache has no
// set_mshr_limit, so reconfiguration and per-core quotas are pinned here
// against hand-computed counter values.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/cache.hpp"

namespace lpm::mem {
namespace {

class TestSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override { by_id[rsp.id] = rsp; }
  [[nodiscard]] bool got(RequestId id) const { return by_id.count(id) > 0; }
  std::map<RequestId, MemResponse> by_id;
};

/// A lower level that accepts every fill and holds it until answered.
class HoldingLevel final : public MemoryLevel {
 public:
  bool try_access(const MemRequest& req) override {
    held.push_back(req);
    return true;
  }
  void tick(Cycle) override {}
  void finalize(Cycle) override {}
  [[nodiscard]] bool busy() const override { return !held.empty(); }
  [[nodiscard]] bool holds(Addr block) const {
    return std::any_of(held.begin(), held.end(),
                       [&](const MemRequest& r) { return r.addr == block; });
  }
  void answer(Addr block, Cycle now) {
    const auto it = std::find_if(held.begin(), held.end(),
                                 [&](const MemRequest& r) { return r.addr == block; });
    ASSERT_NE(it, held.end());
    const MemRequest req = *it;
    held.erase(it);
    req.reply_to->on_response(MemResponse{req.id, req.core, req.addr, now});
  }
  std::vector<MemRequest> held;
};

constexpr Addr kA = 0x000, kB = 0x040, kC = 0x080, kD = 0x0c0, kE = 0x100;

CacheConfig two_entry_cache() {
  CacheConfig cfg;
  cfg.name = "L1g";
  cfg.size_bytes = 1024;  // 4 sets x 4 ways x 64 B
  cfg.block_bytes = 64;
  cfg.associativity = 4;
  cfg.hit_latency = 1;
  cfg.ports = 4;
  cfg.mshr_entries = 2;
  cfg.mshr_targets = 2;
  return cfg;
}

struct Rig {
  explicit Rig(CacheConfig cfg) : cache(std::move(cfg), &below) {}
  MemRequest read(RequestId id, Addr addr, CoreId core = 0) {
    MemRequest r;
    r.id = id;
    r.core = core;
    r.addr = addr;
    r.reply_to = &sink;
    return r;
  }
  HoldingLevel below;
  Cache cache;
  TestSink sink;
};

/// Cycle 0 accepts misses to A, B, C and D; at cycle 1 A and B take the
/// two entries and C and D start waiting.
void start_four_misses(Rig& rig) {
  rig.cache.tick(0);
  RequestId id = 1;
  for (const Addr a : {kA, kB, kC, kD}) {
    ASSERT_TRUE(rig.cache.try_access(rig.read(id++, a)));
  }
  rig.cache.tick(1);
  ASSERT_TRUE(rig.below.holds(kA) && rig.below.holds(kB));
  ASSERT_EQ(rig.cache.stats().mshr_full_waits, 0u);
}

TEST(MshrWaitGate, EveryWaitingMissIsCreditedEveryCycle) {
  Rig rig(two_entry_cache());
  start_four_misses(rig);
  // C and D each log one failed retry per cycle while A and B are held.
  for (Cycle t = 2; t < 12; ++t) {
    rig.cache.tick(t);
    EXPECT_EQ(rig.cache.stats().mshr_full_waits, 2 * (t - 1)) << "cycle " << t;
  }
  rig.below.answer(kA, 11);
  rig.cache.tick(12);  // A installs; C takes its entry, D waits on
  EXPECT_TRUE(rig.sink.got(1));
  EXPECT_TRUE(rig.below.holds(kC));
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 21u);
  rig.cache.tick(13);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 22u);
  EXPECT_FALSE(rig.below.holds(kD));
}

TEST(MshrWaitGate, RaisedLimitGrantsTheOldestWaiterOnTheNextTick) {
  Rig rig(two_entry_cache());
  start_four_misses(rig);
  rig.cache.tick(2);
  rig.cache.tick(3);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 4u);

  rig.cache.set_mshr_limit(1);  // below the two entries in use
  rig.cache.tick(4);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 6u);
  rig.below.answer(kA, 4);
  rig.cache.tick(5);  // A frees an entry, but one in use meets the limit
  EXPECT_TRUE(rig.sink.got(1));
  EXPECT_FALSE(rig.below.holds(kC));
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 8u);
  rig.cache.tick(6);
  rig.cache.tick(7);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 12u);

  // Nothing in the MSHR file changes with the limit: the gate must still
  // see the raise, and C, the oldest waiter, gets the free entry at once.
  rig.cache.set_mshr_limit(2);
  rig.cache.tick(8);
  EXPECT_TRUE(rig.below.holds(kC));
  EXPECT_FALSE(rig.below.holds(kD));
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 13u);
  rig.cache.tick(9);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 14u);
}

TEST(MshrWaitGate, QuotaWaitsMatchAPerCycleCount) {
  CacheConfig cfg = two_entry_cache();
  cfg.mshr_entries = 4;
  cfg.mshr_quota_per_core = 1;
  cfg.num_cores = 2;
  Rig rig(cfg);

  rig.cache.tick(0);
  ASSERT_TRUE(rig.cache.try_access(rig.read(1, kA, 0)));
  ASSERT_TRUE(rig.cache.try_access(rig.read(2, kB, 0)));
  ASSERT_TRUE(rig.cache.try_access(rig.read(3, kC, 0)));
  ASSERT_TRUE(rig.cache.try_access(rig.read(4, kD, 1)));
  // Cycle 1: A and D take entries; B and C exceed core 0's quota of one
  // with two entries still free, so each counts a quota wait.
  rig.cache.tick(1);
  EXPECT_EQ(rig.cache.stats().quota_waits, 2u);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 0u);

  // Cycles 2-5: B and C retry and fail on the quota every cycle.
  for (Cycle t = 2; t <= 5; ++t) {
    rig.cache.tick(t);
    EXPECT_EQ(rig.cache.stats().quota_waits, 2 + 2 * (t - 1)) << "cycle " << t;
    EXPECT_EQ(rig.cache.stats().mshr_full_waits, 2 * (t - 1)) << "cycle " << t;
  }

  // Cycle 6: B and C fail again (12 quota waits, 10 full waits); then E
  // misses for core 1, which already holds D's entry: a third quota wait
  // in the same cycle, against the same MSHR state.
  ASSERT_TRUE(rig.cache.try_access(rig.read(5, kE, 1)));
  rig.cache.tick(6);
  EXPECT_EQ(rig.cache.stats().quota_waits, 13u);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 10u);
  // Cycle 7: B, C and E all fail on the quota.
  rig.cache.tick(7);
  EXPECT_EQ(rig.cache.stats().quota_waits, 16u);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 13u);

  // Cycle 8: A's fill frees core 0's entry. B takes it; C (core 0) and E
  // (core 1) fail on the quota.
  rig.below.answer(kA, 7);
  rig.cache.tick(8);
  EXPECT_TRUE(rig.below.holds(kB));
  EXPECT_EQ(rig.cache.stats().quota_waits, 18u);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 15u);
  rig.cache.tick(9);
  EXPECT_EQ(rig.cache.stats().quota_waits, 20u);
  EXPECT_EQ(rig.cache.stats().mshr_full_waits, 17u);
}

}  // namespace
}  // namespace lpm::mem
