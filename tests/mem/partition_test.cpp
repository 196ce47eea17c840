// Memory parallelism partition (per-core MSHR quotas) and SRRIP selective
// replacement - the paper's SVII future-work mechanisms.
#include <gtest/gtest.h>

#include <map>

#include "mem/cache.hpp"
#include "mem/perfect_memory.hpp"

namespace lpm::mem {
namespace {

class TestSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override { by_id[rsp.id] = rsp; }
  std::map<RequestId, MemResponse> by_id;
};

struct Harness {
  explicit Harness(CacheConfig cfg, std::uint32_t mem_latency = 50)
      : below(mem_latency), cache(std::move(cfg), &below) {}
  void tick() {
    below.tick(now);
    cache.tick(now);
    ++now;
  }
  void run_until_idle(Cycle limit = 5000) {
    const Cycle end = now + limit;
    while ((cache.busy() || below.busy()) && now < end) tick();
  }
  MemRequest read(RequestId id, Addr addr, CoreId core) {
    MemRequest r;
    r.id = id;
    r.core = core;
    r.addr = addr;
    r.kind = AccessKind::kRead;
    r.reply_to = &sink;
    return r;
  }
  PerfectMemory below;
  Cache cache;
  TestSink sink;
  Cycle now = 0;
};

CacheConfig shared_cache(std::uint32_t quota) {
  CacheConfig cfg;
  cfg.name = "L2q";
  cfg.size_bytes = 64 * 1024;
  cfg.block_bytes = 64;
  cfg.associativity = 8;
  cfg.hit_latency = 4;
  cfg.ports = 4;
  cfg.mshr_entries = 8;
  cfg.mshr_quota_per_core = quota;
  cfg.num_cores = 2;
  return cfg;
}

TEST(MshrQuota, HogCannotMonopolizeEntries) {
  Harness h(shared_cache(/*quota=*/3), /*mem_latency=*/200);
  h.tick();
  // Core 0 floods with 8 distinct-block misses in one burst (4/cycle ports).
  RequestId id = 1;
  for (int i = 0; i < 8; ++i) {
    if (!h.cache.try_access(h.read(id, 0x10000u + 64u * i, 0))) h.tick();
    ++id;
    if (i % 4 == 3) h.tick();
  }
  h.tick();
  // Core 1 arrives late with one miss: a quota-partitioned MSHR file must
  // still have an entry for it promptly (no 200-cycle wait behind the hog).
  const Cycle arrival = h.now;
  ASSERT_TRUE(h.cache.try_access(h.read(100, 0x40000, 1)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.by_id.count(100));
  const Cycle latency = h.sink.by_id[100].completed - arrival;
  EXPECT_LT(latency, 250u);  // one memory round trip, not two
  EXPECT_GT(h.cache.stats().quota_waits, 0u);
}

TEST(MshrQuota, WithoutQuotaHogDelaysVictim) {
  Harness h(shared_cache(/*quota=*/0), /*mem_latency=*/200);
  h.tick();
  RequestId id = 1;
  for (int i = 0; i < 8; ++i) {
    if (!h.cache.try_access(h.read(id, 0x10000u + 64u * i, 0))) h.tick();
    ++id;
    if (i % 4 == 3) h.tick();
  }
  h.tick();
  const Cycle arrival = h.now;
  ASSERT_TRUE(h.cache.try_access(h.read(100, 0x40000, 1)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.by_id.count(100));
  // All 8 MSHRs are held by core 0 for ~200 cycles; the victim waits.
  EXPECT_GT(h.sink.by_id[100].completed - arrival, 250u);
  EXPECT_EQ(h.cache.stats().quota_waits, 0u);
}

TEST(MshrQuota, CoalescingAllowedBeyondQuota) {
  Harness h(shared_cache(/*quota=*/1), /*mem_latency=*/100);
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x1000, 0)));
  h.tick();
  h.tick();
  h.tick();
  h.tick();
  h.tick();
  // Same-block access from core 0: coalesces even though quota is used up.
  ASSERT_TRUE(h.cache.try_access(h.read(2, 0x1020, 0)));
  h.run_until_idle();
  EXPECT_TRUE(h.sink.by_id.count(1));
  EXPECT_TRUE(h.sink.by_id.count(2));
  EXPECT_EQ(h.cache.stats().mshr_coalesced, 1u);
}

TEST(MshrQuota, CountsPerCore) {
  MshrFile f(4, 2);
  MshrTarget t0;
  t0.id = 1;
  t0.core = 0;
  MshrTarget t1;
  t1.id = 2;
  t1.core = 1;
  f.allocate(0x0, t0, 0);
  f.allocate(0x40, t0, 0);
  f.allocate(0x80, t1, 0);
  EXPECT_EQ(f.in_use_by(0), 2u);
  EXPECT_EQ(f.in_use_by(1), 1u);
  EXPECT_EQ(f.in_use_by(7), 0u);
}

TEST(Srrip, ScanResistance) {
  // A hot line is re-referenced repeatedly; a one-shot scan walks the set.
  // SRRIP must keep the hot line; LRU evicts it.
  const auto run_policy = [](ReplacementPolicy policy) {
    CacheConfig cfg;
    cfg.name = "L1r";
    cfg.size_bytes = 512;  // 2 sets x 4 ways
    cfg.block_bytes = 64;
    cfg.associativity = 4;
    cfg.hit_latency = 1;
    cfg.ports = 1;
    cfg.mshr_entries = 2;
    cfg.replacement = policy;
    Harness h(cfg, /*mem_latency=*/5);
    h.tick();
    RequestId id = 1;
    const Addr hot = 0x0;  // set 0
    const auto access = [&](Addr a) {
      while (!h.cache.try_access(h.read(id, a, 0))) h.tick();
      ++id;
      h.run_until_idle();
    };
    access(hot);
    access(hot);
    access(hot);  // establish reuse
    // Scan: 6 one-shot blocks mapping to set 0 (stride 128 = 2 sets).
    for (int i = 1; i <= 6; ++i) {
      access(hot + 128u * i);
      access(hot);  // hot line stays live between scan steps
    }
    return h.cache.contains_block(hot);
  };
  EXPECT_TRUE(run_policy(ReplacementPolicy::kSrrip));
}

TEST(Srrip, VictimAgesUntilDistant) {
  ReplacementTable st(ReplacementPolicy::kSrrip, 1, 4);
  util::Rng rng(1);
  st.fill(0, 0, 1);
  st.fill(0, 1, 2);
  st.fill(0, 2, 3);
  st.fill(0, 3, 4);
  st.touch(0, 0, 5);  // way 0: rrpv 0, others 2
  // Victim must be one of the non-reused ways, never way 0.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(st.victim(0, rng), 0u);
  }
}

TEST(Srrip, StringRoundTrip) {
  EXPECT_EQ(replacement_from_string("srrip"), ReplacementPolicy::kSrrip);
  EXPECT_STREQ(to_string(ReplacementPolicy::kSrrip), "srrip");
}

}  // namespace
}  // namespace lpm::mem
