#include "mem/dram.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/error.hpp"

namespace lpm::mem {
namespace {

class TestSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override { by_id[rsp.id] = rsp; }
  [[nodiscard]] bool got(RequestId id) const { return by_id.count(id) > 0; }
  std::map<RequestId, MemResponse> by_id;
};

DramConfig small_dram() {
  DramConfig cfg;
  cfg.banks = 2;
  cfg.row_bytes = 1024;
  cfg.interleave_bytes = 64;
  cfg.t_rcd = 10;
  cfg.t_cl = 10;
  cfg.t_rp = 10;
  cfg.t_burst = 4;
  cfg.frontend_latency = 5;
  cfg.queue_capacity = 8;
  return cfg;
}

struct Harness {
  explicit Harness(DramConfig cfg = small_dram()) : dram(std::move(cfg)) {}
  void tick() { dram.tick(now++); }
  void run_until_idle(Cycle limit = 5000) {
    const Cycle end = now + limit;
    while (dram.busy() && now < end) tick();
  }
  MemRequest read(RequestId id, Addr addr) {
    MemRequest r;
    r.id = id;
    r.addr = addr;
    r.kind = AccessKind::kRead;
    r.reply_to = &sink;
    return r;
  }
  Dram dram;
  TestSink sink;
  Cycle now = 0;
};

TEST(DramConfig, ValidationCatchesBadFields) {
  auto cfg = small_dram();
  cfg.banks = 3;
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_dram();
  cfg.row_bytes = 32;  // below interleave
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = small_dram();
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), util::LpmError);
}

TEST(Dram, RowMissLatency) {
  Harness h;
  h.tick();
  const Cycle start = h.now - 1;
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.got(1));
  // Closed bank: tRCD + tCL + tBURST + frontend = 10+10+4+5 = 29.
  EXPECT_EQ(h.sink.by_id[1].completed - start, 29u + 1u);
  EXPECT_EQ(h.dram.stats().row_misses, 1u);
}

TEST(Dram, RowHitIsFaster) {
  Harness h;
  h.tick();
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  const Cycle start = h.now;
  // Same row (same bank, within row_bytes*banks stripe).
  ASSERT_TRUE(h.dram.try_access(h.read(2, 0x80)));
  h.run_until_idle();
  ASSERT_TRUE(h.sink.got(2));
  const Cycle hit_latency = h.sink.by_id[2].completed - start;
  // Open row: tCL + tBURST + frontend = 19 (+1 tick alignment slack).
  EXPECT_LE(hit_latency, 21u);
  EXPECT_EQ(h.dram.stats().row_hits, 1u);
}

TEST(Dram, RowConflictIsSlowest) {
  Harness h;
  h.tick();
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  const Cycle start = h.now;
  // Same bank (bank 0), different row: addr = row_bytes * banks = 2048.
  ASSERT_TRUE(h.dram.try_access(h.read(2, 2048)));
  h.run_until_idle();
  const Cycle conflict_latency = h.sink.by_id[2].completed - start;
  // tRP + tRCD + tCL + tBURST + frontend = 39 (+ slack).
  EXPECT_GE(conflict_latency, 39u);
  EXPECT_EQ(h.dram.stats().row_conflicts, 1u);
}

TEST(Dram, QueueCapacityBackpressure) {
  auto cfg = small_dram();
  cfg.queue_capacity = 2;
  Harness h(cfg);
  h.tick();
  EXPECT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  EXPECT_TRUE(h.dram.try_access(h.read(2, 0x40)));
  EXPECT_FALSE(h.dram.try_access(h.read(3, 0x80)));
  EXPECT_EQ(h.dram.stats().rejected_full, 1u);
  h.run_until_idle();
  EXPECT_TRUE(h.dram.try_access(h.read(3, 0x80)));
}

TEST(Dram, BanksServeInParallel) {
  auto cfg = small_dram();
  cfg.max_issue_per_cycle = 2;
  Harness h(cfg);
  h.tick();
  // Bank 0 and bank 1 (64B interleave).
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  ASSERT_TRUE(h.dram.try_access(h.read(2, 0x40)));
  h.run_until_idle();
  // Both complete with (nearly) the same latency: parallel banks.
  const auto d = h.sink.by_id[2].completed - h.sink.by_id[1].completed;
  EXPECT_LE(d, 1u);
}

TEST(Dram, SameBankSerializes) {
  Harness h;
  h.tick();
  // Two different rows in bank 0 back to back.
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  ASSERT_TRUE(h.dram.try_access(h.read(2, 2048)));
  h.run_until_idle();
  // The second waits for the first's bank occupancy, then pays a conflict.
  EXPECT_GT(h.sink.by_id[2].completed, h.sink.by_id[1].completed + 20);
}

TEST(Dram, FrFcfsPrefersRowHits) {
  auto cfg = small_dram();
  Harness h(cfg);
  h.tick();
  // Open row 0 in bank 0.
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  // Now enqueue a conflict (older) and a row hit (younger) for bank 0 in
  // the same cycle. FR-FCFS serves the row hit first.
  ASSERT_TRUE(h.dram.try_access(h.read(2, 2048)));  // different row
  ASSERT_TRUE(h.dram.try_access(h.read(3, 0x100)));  // row 0 hit
  h.run_until_idle();
  EXPECT_LT(h.sink.by_id[3].completed, h.sink.by_id[2].completed);
}

TEST(Dram, WritesAreFireAndForget) {
  Harness h;
  h.tick();
  MemRequest w;
  w.id = 7;
  w.addr = 0x40;
  w.kind = AccessKind::kWrite;
  w.reply_to = nullptr;
  ASSERT_TRUE(h.dram.try_access(w));
  h.run_until_idle();
  EXPECT_EQ(h.dram.stats().writes, 1u);
  EXPECT_FALSE(h.sink.got(7));
  EXPECT_FALSE(h.dram.busy());
}

TEST(Dram, ReadLatencyStatAccumulates) {
  Harness h;
  h.tick();
  ASSERT_TRUE(h.dram.try_access(h.read(1, 0x0)));
  h.run_until_idle();
  EXPECT_EQ(h.dram.stats().reads, 1u);
  EXPECT_GE(h.dram.stats().total_read_latency, 29u);
}

DramConfig four_bank_dram(std::uint32_t max_issue) {
  DramConfig cfg = small_dram();
  cfg.banks = 4;
  cfg.queue_capacity = 16;
  cfg.max_issue_per_cycle = max_issue;
  return cfg;
}

TEST(Dram, ArrivalForIdleBankIssuesAtOnceWhileOtherBanksAreBusy) {
  // Banks 0-2 are busy and each has a conflicting request waiting, so the
  // scheduler's next event is a bank freeing. An arrival for idle bank 3
  // must still issue on the next tick, not when the busy banks free.
  for (const std::uint32_t max_issue : {1u, 8u}) {
    Harness h(four_bank_dram(max_issue));
    const Addr stripe = 1024 * 4;  // row_bytes * banks: next row, same bank
    for (RequestId b = 0; b < 3; ++b) {
      ASSERT_TRUE(h.dram.try_access(h.read(1 + b, 64 * b)));
      ASSERT_TRUE(h.dram.try_access(h.read(10 + b, stripe + 64 * b)));
    }
    while (h.now < 8) h.tick();  // first commands issued by cycle 2
    ASSERT_TRUE(h.dram.try_access(h.read(20, 64 * 3)));
    const Cycle arrival_tick = h.now;
    h.run_until_idle();
    ASSERT_TRUE(h.sink.got(20));
    // Closed row: tRCD + tCL + tBURST + frontend = 29 after its issue.
    EXPECT_EQ(h.sink.by_id[20].completed, arrival_tick + 29) << max_issue;
    EXPECT_EQ(h.dram.stats().reads, 7u);
  }
}

TEST(Dram, StarvedRequestGoesFirstOnceItsBankFrees) {
  // A row conflict crosses the starvation threshold while its bank is
  // busy; that crossing is not a scheduler event, yet when the bank frees
  // the starved conflict must beat the younger row hits queued behind it.
  for (const std::uint32_t max_issue : {1u, 8u}) {
    DramConfig cfg = four_bank_dram(max_issue);
    cfg.starvation_threshold = 20;
    Harness h(cfg);
    ASSERT_TRUE(h.dram.try_access(h.read(1, 0)));         // opens row 0
    ASSERT_TRUE(h.dram.try_access(h.read(2, 1024 * 4)));  // row 1, same bank
    h.tick();  // cycle 0: request 1 issues; bank 0 busy until 24
    while (h.now < 10) h.tick();
    for (RequestId id = 3; id < 9; ++id) {  // row-0 hits, younger than 20
      ASSERT_TRUE(h.dram.try_access(h.read(id, 256 * (id - 2))));
    }
    h.run_until_idle();
    ASSERT_TRUE(h.sink.got(2));
    // Issued at 24 as a row conflict: tRP + tRCD + tCL + tBURST + frontend.
    EXPECT_EQ(h.sink.by_id[2].completed, 24u + 39u) << max_issue;
    for (RequestId id = 3; id < 9; ++id) {
      EXPECT_GT(h.sink.by_id[id].completed, h.sink.by_id[2].completed) << id;
    }
  }
}

class OrderSink final : public ResponseSink {
 public:
  void on_response(const MemResponse& rsp) override { replies.push_back(rsp); }
  std::vector<MemResponse> replies;
};

TEST(Dram, RequestsFinishingTogetherReplyInQueueOrder) {
  // Four banks, four commands per cycle: requests to distinct closed banks
  // issue together and finish in the same cycle. One waits behind a row
  // conflict in the middle of the queue, so the finished ones around it
  // leave the queue while it stays. Replies follow acceptance order (not
  // id or bank order), and the survivor still completes.
  Harness h(four_bank_dram(4));
  OrderSink sink;
  const Addr stripe = 1024 * 4;  // row_bytes * banks: next row, same bank
  const auto read = [&](RequestId id, Addr addr) {
    MemRequest r = h.read(id, addr);
    r.reply_to = &sink;
    return r;
  };
  ASSERT_TRUE(h.dram.try_access(read(40, 64 * 3)));       // bank 3
  ASSERT_TRUE(h.dram.try_access(read(10, 64 * 1)));       // bank 1
  ASSERT_TRUE(h.dram.try_access(read(50, stripe + 64)));  // bank 1, conflict
  ASSERT_TRUE(h.dram.try_access(read(30, 0)));            // bank 0
  ASSERT_TRUE(h.dram.try_access(read(20, 64 * 2)));       // bank 2
  h.run_until_idle();

  ASSERT_EQ(sink.replies.size(), 5u);
  const std::vector<RequestId> order = {40, 10, 30, 20, 50};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(sink.replies[i].id, order[i]) << i;
  }
  // Closed rows, issued at cycle 0: tRCD + tCL + tBURST + frontend = 29.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.replies[i].completed, 29u) << i;
  }
  EXPECT_GT(sink.replies[4].completed, 29u);
  EXPECT_EQ(h.dram.stats().reads, 5u);
  EXPECT_FALSE(h.dram.busy());
}

}  // namespace
}  // namespace lpm::mem
