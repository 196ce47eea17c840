#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/perfect_memory.hpp"
#include "util/error.hpp"

namespace lpm::mem {
namespace {

/// Collects responses and remembers arrival cycles.
class TestSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override {
    responses.push_back(rsp);
    by_id[rsp.id] = rsp;
  }
  [[nodiscard]] bool got(RequestId id) const { return by_id.count(id) > 0; }
  std::vector<MemResponse> responses;
  std::map<RequestId, MemResponse> by_id;
};

struct Harness {
  explicit Harness(CacheConfig cfg, std::uint32_t mem_latency = 20)
      : below(mem_latency), cache(std::move(cfg), &below) {}

  /// Ticks hierarchy bottom-up for one cycle.
  void tick() {
    below.tick(now);
    cache.tick(now);
    ++now;
  }
  void run_until_idle(Cycle limit = 2000) {
    const Cycle end = now + limit;
    while ((cache.busy() || below.busy()) && now < end) tick();
  }
  MemRequest read(RequestId id, Addr addr) {
    MemRequest r;
    r.id = id;
    r.core = 0;
    r.addr = addr;
    r.kind = AccessKind::kRead;
    r.created = now;
    r.reply_to = &sink;
    return r;
  }
  MemRequest write(RequestId id, Addr addr) {
    MemRequest r = read(id, addr);
    r.kind = AccessKind::kWrite;
    return r;
  }

  PerfectMemory below;
  Cache cache;
  TestSink sink;
  Cycle now = 0;
};

CacheConfig small_cache() {
  CacheConfig cfg;
  cfg.name = "L1t";
  cfg.size_bytes = 1024;  // 4 sets x 4 ways x 64B
  cfg.block_bytes = 64;
  cfg.associativity = 4;
  cfg.hit_latency = 2;
  cfg.ports = 2;
  cfg.mshr_entries = 2;
  cfg.mshr_targets = 2;
  return cfg;
}

TEST(CacheConfig, ValidationCatchesBadGeometry) {
  auto cfg = small_cache();
  cfg.block_bytes = 48;  // not a power of two
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_cache();
  cfg.size_bytes = 64;  // smaller than one set
  cfg.associativity = 4;
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_cache();
  cfg.hit_latency = 0;
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_cache();
  cfg.banks = 3;
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_cache();
  cfg.interleave_bytes = 32;  // below block size
  EXPECT_THROW(cfg.validate(), util::LpmError);
}

TEST(Cache, ColdMissThenHit) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x100)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.got(1));
  EXPECT_EQ(h.cache.stats().misses, 1u);
  EXPECT_TRUE(h.cache.contains_block(0x100));

  const Cycle before = h.now;
  ASSERT_TRUE(h.cache.try_access(h.read(2, 0x100)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.got(2));
  EXPECT_EQ(h.cache.stats().hits, 1u);
  // Hit completes in exactly hit_latency cycles.
  EXPECT_EQ(h.sink.by_id[2].completed, before + 2 - 1);
}

TEST(Cache, MissLatencyIncludesLowerLevel) {
  Harness h(small_cache(), 20);
  h.tick();
  const Cycle start = h.now - 1;  // accept cycle = last ticked cycle
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x40)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.got(1));
  // At least lookup (2) + memory (20).
  EXPECT_GE(h.sink.by_id[1].completed - start, 22u);
}

TEST(Cache, CoalescesSameBlockMisses) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x200)));
  ASSERT_TRUE(h.cache.try_access(h.read(2, 0x220)));  // same 64B block
  h.run_until_idle();
  EXPECT_TRUE(h.sink.got(1));
  EXPECT_TRUE(h.sink.got(2));
  EXPECT_EQ(h.cache.stats().misses, 2u);
  EXPECT_EQ(h.cache.stats().mshr_coalesced, 1u);
  // Only one fill went below.
  EXPECT_EQ(h.below.accesses(), 1u);
}

TEST(Cache, PortLimitRejectsExcessAccesses) {
  Harness h(small_cache());  // 2 ports
  h.tick();
  EXPECT_TRUE(h.cache.try_access(h.read(1, 0x000)));
  EXPECT_TRUE(h.cache.try_access(h.read(2, 0x400)));
  EXPECT_FALSE(h.cache.try_access(h.read(3, 0x800)));
  EXPECT_EQ(h.cache.stats().rejected_ports, 1u);
  h.tick();  // next cycle frees the ports
  EXPECT_TRUE(h.cache.try_access(h.read(3, 0x800)));
}

TEST(Cache, BankConflictRejects) {
  auto cfg = small_cache();
  cfg.ports = 4;
  cfg.banks = 2;
  cfg.interleave_bytes = 64;
  Harness h(cfg);
  h.tick();
  // 0x000 and 0x080 share bank 0 (64B interleave, 2 banks); per-bank limit
  // is max(1, 4/2) = 2, so a third same-bank access bounces.
  EXPECT_TRUE(h.cache.try_access(h.read(1, 0x000)));
  EXPECT_TRUE(h.cache.try_access(h.read(2, 0x080)));
  EXPECT_FALSE(h.cache.try_access(h.read(3, 0x100)));
  EXPECT_EQ(h.cache.stats().rejected_bank, 1u);
  // A different bank still has room.
  EXPECT_TRUE(h.cache.try_access(h.read(4, 0x040)));
}

TEST(Cache, MshrExhaustionDelaysButCompletes) {
  auto cfg = small_cache();
  cfg.mshr_entries = 1;
  cfg.ports = 4;
  Harness h(cfg, 30);
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x000)));
  ASSERT_TRUE(h.cache.try_access(h.read(2, 0x400)));
  ASSERT_TRUE(h.cache.try_access(h.read(3, 0x800)));
  h.run_until_idle();
  EXPECT_TRUE(h.sink.got(1));
  EXPECT_TRUE(h.sink.got(2));
  EXPECT_TRUE(h.sink.got(3));
  EXPECT_GT(h.cache.stats().mshr_full_waits, 0u);
  // Misses were serialized by the single MSHR: 2 and 3 finish much later.
  EXPECT_GT(h.sink.by_id[3].completed, h.sink.by_id[1].completed + 25);
}

TEST(Cache, EvictionKeepsWorkingSetBounded) {
  Harness h(small_cache());  // 4 sets x 4 ways
  h.tick();
  // Walk 8 blocks mapping to set 0 (stride = 4 sets * 64B = 256B).
  RequestId id = 1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.cache.try_access(h.read(id++, 0x100u * 0 + 256u * i)));
    h.run_until_idle();
  }
  EXPECT_EQ(h.cache.stats().evictions, 4u);  // 8 fills into 4 ways
  // The most recent block is resident; the first is long gone.
  EXPECT_TRUE(h.cache.contains_block(256u * 7));
  EXPECT_FALSE(h.cache.contains_block(0));
}

TEST(Cache, DirtyEvictionWritesBack) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.write(1, 0x000)));
  h.run_until_idle();
  EXPECT_TRUE(h.cache.block_dirty(0x000));
  const auto mem_accesses_before = h.below.accesses();
  // Evict block 0 by filling set 0 with 4 more blocks.
  RequestId id = 10;
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(h.cache.try_access(h.read(id++, 256u * i)));
    h.run_until_idle();
  }
  EXPECT_FALSE(h.cache.contains_block(0x000));
  EXPECT_EQ(h.cache.stats().writebacks, 1u);
  // 4 fills + 1 writeback reached the lower level.
  EXPECT_EQ(h.below.accesses() - mem_accesses_before, 5u);
}

TEST(Cache, StoreMissAllocates) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.write(1, 0x300)));
  h.run_until_idle();
  EXPECT_TRUE(h.sink.got(1));
  EXPECT_TRUE(h.cache.contains_block(0x300));
  EXPECT_TRUE(h.cache.block_dirty(0x300));
}

TEST(Cache, WritebackFromAboveHitMarksDirty) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x140)));
  h.run_until_idle();
  EXPECT_FALSE(h.cache.block_dirty(0x140));
  MemRequest wb;
  wb.id = 99;
  wb.addr = 0x140;
  wb.kind = AccessKind::kWrite;
  wb.reply_to = nullptr;  // fire-and-forget writeback
  ASSERT_TRUE(h.cache.try_access(wb));
  h.run_until_idle();
  EXPECT_TRUE(h.cache.block_dirty(0x140));
  EXPECT_EQ(h.cache.stats().writeback_hits, 1u);
  // Writebacks are not demand accesses.
  EXPECT_EQ(h.cache.stats().accesses, 1u);
}

TEST(Cache, WritebackMissForwardsDownstream) {
  Harness h(small_cache());
  h.tick();
  MemRequest wb;
  wb.id = 99;
  wb.addr = 0x5000;
  wb.kind = AccessKind::kWrite;
  wb.reply_to = nullptr;
  const auto before = h.below.accesses();
  ASSERT_TRUE(h.cache.try_access(wb));
  h.run_until_idle();
  EXPECT_EQ(h.cache.stats().writeback_forwards, 1u);
  EXPECT_EQ(h.below.accesses() - before, 1u);
  EXPECT_FALSE(h.cache.contains_block(0x5000));  // no allocate on wb miss
}

TEST(Cache, PerCoreAttribution) {
  auto cfg = small_cache();
  cfg.num_cores = 2;
  Harness h(cfg);
  h.tick();
  MemRequest r = h.read(1, 0x000);
  r.core = 0;
  ASSERT_TRUE(h.cache.try_access(r));
  h.run_until_idle();
  MemRequest r2 = h.read(2, 0x1000);
  r2.core = 1;
  ASSERT_TRUE(h.cache.try_access(r2));
  h.run_until_idle();
  MemRequest r3 = h.read(3, 0x000);  // hit for core 1
  r3.core = 1;
  ASSERT_TRUE(h.cache.try_access(r3));
  h.run_until_idle();
  EXPECT_EQ(h.cache.stats().core_accesses[0], 1u);
  EXPECT_EQ(h.cache.stats().core_accesses[1], 2u);
  EXPECT_EQ(h.cache.stats().core_misses[0], 1u);
  EXPECT_EQ(h.cache.stats().core_misses[1], 1u);
}

TEST(Cache, MissRateComputation) {
  Harness h(small_cache());
  h.tick();
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  ASSERT_TRUE(h.cache.try_access(h.read(2, 0x0)));
  h.run_until_idle();
  ASSERT_TRUE(h.cache.try_access(h.read(3, 0x8)));
  h.run_until_idle();
  ASSERT_TRUE(h.cache.try_access(h.read(4, 0x1000)));
  h.run_until_idle();
  EXPECT_DOUBLE_EQ(h.cache.stats().miss_rate(), 0.5);
}

/// A lower level that records every fill attempt, rejects blocks while
/// they are listed in `refuse`, and answers accepted fills on demand.
class ScriptedLevel final : public MemoryLevel {
 public:
  bool try_access(const MemRequest& req) override {
    attempts.push_back(req.addr);
    if (std::find(refuse.begin(), refuse.end(), req.addr) != refuse.end()) {
      return false;
    }
    accepted.push_back(req);
    return true;
  }
  void tick(Cycle) override {}
  void finalize(Cycle) override {}
  [[nodiscard]] bool busy() const override { return !accepted.empty(); }
  void answer(Addr block, Cycle now) {
    const auto it = std::find_if(accepted.begin(), accepted.end(),
                                 [&](const MemRequest& r) { return r.addr == block; });
    ASSERT_NE(it, accepted.end());
    const MemRequest req = *it;
    accepted.erase(it);
    req.reply_to->on_response(MemResponse{req.id, req.core, req.addr, now});
  }
  std::vector<Addr> refuse;
  std::vector<Addr> attempts;
  std::vector<MemRequest> accepted;
};

TEST(Cache, PendingFillsIssueInMshrIndexOrder) {
  // Fills go downstream in MSHR-index order, and a freed entry is reused
  // lowest index first, so a young miss in a low entry overtakes older
  // misses the level below refused.
  CacheConfig cfg = small_cache();
  cfg.hit_latency = 1;
  cfg.ports = 4;
  cfg.mshr_entries = 4;
  ScriptedLevel below;
  Cache cache(cfg, &below);
  TestSink sink;
  auto read = [&sink](RequestId id, Addr addr) {
    MemRequest r;
    r.id = id;
    r.core = 0;
    r.addr = addr;
    r.reply_to = &sink;
    return r;
  };
  const Addr a = 0x000, b = 0x040, c = 0x080, d = 0x0c0, e = 0x100;
  below.refuse = {b, c};

  cache.tick(0);
  for (const auto& [id, addr] : {std::pair{1, a}, {2, b}, {3, c}, {4, d}}) {
    ASSERT_TRUE(cache.try_access(read(id, addr)));
  }
  cache.tick(1);  // four misses take entries 0..3; b and c are refused
  EXPECT_EQ(below.attempts, (std::vector<Addr>{a, b, c, d}));

  below.answer(a, 1);
  below.attempts.clear();
  cache.tick(2);  // a installs and frees entry 0; b and c retry, in order
  EXPECT_EQ(below.attempts, (std::vector<Addr>{b, c}));
  ASSERT_TRUE(cache.try_access(read(5, e)));

  below.refuse.clear();
  below.attempts.clear();
  cache.tick(3);  // e misses into entry 0 and goes first
  EXPECT_EQ(below.attempts, (std::vector<Addr>{e, b, c}));
  EXPECT_TRUE(sink.got(1));
}

TEST(Cache, BusyReflectsInFlightWork) {
  Harness h(small_cache());
  h.tick();
  EXPECT_FALSE(h.cache.busy());
  ASSERT_TRUE(h.cache.try_access(h.read(1, 0x40)));
  EXPECT_TRUE(h.cache.busy());
  h.run_until_idle();
  EXPECT_FALSE(h.cache.busy());
}

}  // namespace
}  // namespace lpm::mem
