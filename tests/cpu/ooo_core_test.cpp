#include "cpu/ooo_core.hpp"

#include <gtest/gtest.h>
#include "common/tolerance.hpp"

#include <algorithm>
#include <memory>

#include "check/ref_core.hpp"
#include "mem/perfect_memory.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace lpm::cpu {
namespace {

using trace::MicroOp;
using trace::OpType;

MicroOp alu(std::uint8_t latency = 1, std::uint32_t dep = 0) {
  MicroOp op;
  op.type = OpType::kAlu;
  op.exec_latency = latency;
  op.dep_dist = dep;
  return op;
}

MicroOp load(Addr addr, std::uint32_t dep = 0) {
  MicroOp op;
  op.type = OpType::kLoad;
  op.addr = addr;
  op.dep_dist = dep;
  return op;
}

MicroOp store(Addr addr) {
  MicroOp op;
  op.type = OpType::kStore;
  op.addr = addr;
  return op;
}

struct Harness {
  Harness(CoreConfig cfg, std::vector<MicroOp> ops, std::uint32_t mem_latency = 10,
          std::uint32_t mem_ports = 0)
      : trace("t", std::move(ops)),
        mem(mem_latency, mem_ports),
        core(std::move(cfg), &trace, &mem, 1) {}

  Cycle run(Cycle limit = 100000) {
    Cycle now = 0;
    while (!core.finished() && now < limit) {
      mem.tick(now);
      core.tick(now);
      ++now;
    }
    return now;
  }

  trace::VectorTrace trace;
  mem::PerfectMemory mem;
  OooCore core;
};

CoreConfig wide_core() {
  CoreConfig cfg;
  cfg.issue_width = 4;
  cfg.dispatch_width = 4;
  cfg.commit_width = 4;
  cfg.iw_size = 16;
  cfg.rob_size = 16;
  cfg.lsq_size = 8;
  return cfg;
}

TEST(CoreConfig, ValidationCatchesBadFields) {
  auto cfg = wide_core();
  cfg.issue_width = 0;
  EXPECT_THROW(cfg.validate(), util::LpmError);
  cfg = wide_core();
  cfg.iw_size = 32;
  cfg.rob_size = 16;  // IW > ROB
  EXPECT_THROW(cfg.validate(), util::LpmError);
}

TEST(OooCore, RunsAllInstructionsToCompletion) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 100; ++i) ops.push_back(alu());
  Harness h(wide_core(), ops);
  h.run();
  EXPECT_TRUE(h.core.finished());
  EXPECT_EQ(h.core.stats().instructions, 100u);
}

TEST(OooCore, IndependentAlusReachIssueWidthIpc) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 4000; ++i) ops.push_back(alu(1, 0));
  Harness h(wide_core(), ops);
  h.run();
  EXPECT_GT(h.core.stats().ipc(), 3.5);
}

TEST(OooCore, DependentChainSerializes) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 1000; ++i) ops.push_back(alu(1, i == 0 ? 0 : 1));
  Harness h(wide_core(), ops);
  h.run();
  // A dep-distance-1 chain of unit-latency ALUs cannot exceed IPC 1.
  EXPECT_LE(h.core.stats().ipc(), 1.05);
}

TEST(OooCore, InOrderConfigSerializesMemory) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 50; ++i) ops.push_back(load(static_cast<Addr>(i) * 64));
  Harness h(CoreConfig::in_order(), ops, 10);
  const Cycle cycles = h.run();
  // Each load takes >= 10 cycles and nothing overlaps.
  EXPECT_GE(cycles, 50u * 10u);
  EXPECT_LE(h.core.stats().overlap_ratio(), 0.05);
}

TEST(OooCore, WideCoreOverlapsIndependentLoads) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(load(static_cast<Addr>(i) * 64));
  Harness ooo(wide_core(), ops, 10);
  const Cycle wide_cycles = ooo.run();
  Harness narrow(CoreConfig::in_order(), ops, 10);
  const Cycle narrow_cycles = narrow.run();
  // MLP: the wide core is several times faster on independent misses.
  EXPECT_LT(wide_cycles * 3, narrow_cycles);
}

TEST(OooCore, PointerChaseDefeatsMlp) {
  std::vector<MicroOp> chased;
  std::vector<MicroOp> parallel;
  for (int i = 0; i < 300; ++i) {
    chased.push_back(load(static_cast<Addr>(i) * 64, i == 0 ? 0 : 1));
    parallel.push_back(load(static_cast<Addr>(i) * 64, 0));
  }
  Harness a(wide_core(), chased, 20);
  Harness b(wide_core(), parallel, 20);
  const Cycle serial_cycles = a.run();
  const Cycle overlap_cycles = b.run();
  EXPECT_GT(serial_cycles, overlap_cycles * 3);
}

TEST(OooCore, StoresRetireAtAcceptance) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 100; ++i) ops.push_back(store(static_cast<Addr>(i) * 64));
  Harness h(wide_core(), ops, 50);
  const Cycle cycles = h.run();
  // If stores blocked commit for their full 50-cycle latency, the run would
  // take >= 100*50/8(lsq) cycles; store-buffer semantics keep it far lower.
  EXPECT_LT(cycles, 100u * 50u / 4u);
  EXPECT_EQ(h.core.stats().stores, 100u);
}

TEST(OooCore, LsqBoundsInFlightMemory) {
  auto cfg = wide_core();
  cfg.lsq_size = 2;
  std::vector<MicroOp> ops;
  for (int i = 0; i < 50; ++i) ops.push_back(load(static_cast<Addr>(i) * 64));
  Harness h(cfg, ops, 30);
  Cycle now = 0;
  std::size_t max_in_flight = 0;
  while (!h.core.finished() && now < 100000) {
    h.mem.tick(now);
    h.core.tick(now);
    max_in_flight = std::max(max_in_flight, h.core.in_flight_mem());
    ++now;
  }
  EXPECT_LE(max_in_flight, 2u);
}

TEST(OooCore, StallPlusOverlapEqualsMemActive) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 200; ++i) {
    ops.push_back(load(static_cast<Addr>(i) * 128));
    ops.push_back(alu());
    ops.push_back(alu());
  }
  Harness h(wide_core(), ops, 15);
  h.run();
  const auto& s = h.core.stats();
  EXPECT_EQ(s.mem_active_cycles, s.overlap_cycles + s.data_stall_cycles);
  EXPECT_GT(s.mem_active_cycles, 0u);
}

TEST(OooCore, FmemMatchesTraceComposition) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 300; ++i) {
    ops.push_back(load(static_cast<Addr>(i) * 64));
    ops.push_back(alu());
    ops.push_back(alu());
  }
  Harness h(wide_core(), ops);
  h.run();
  EXPECT_NEAR(h.core.stats().fmem(), 1.0 / 3.0, tol::kTightRel);
}

TEST(OooCore, SecondaryDependenceRespected) {
  // op2 depends (dep_dist2) on the load; with a long memory latency the ALU
  // cannot finish before the load returns.
  std::vector<MicroOp> ops;
  ops.push_back(load(0));
  MicroOp dependent = alu();
  dependent.dep_dist2 = 1;
  ops.push_back(dependent);
  Harness h(wide_core(), ops, 40);
  const Cycle cycles = h.run();
  EXPECT_GE(cycles, 40u);
  EXPECT_TRUE(h.core.finished());
}

TEST(OooCore, RejectionsCountedWhenMemPortsSaturate) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 200; ++i) ops.push_back(load(static_cast<Addr>(i) * 64));
  Harness h(wide_core(), ops, 5, /*mem_ports=*/1);
  h.run();
  EXPECT_GT(h.core.stats().l1_rejections, 0u);
  EXPECT_EQ(h.core.stats().instructions, 200u);
}

TEST(OooCore, FinishedCoreStopsAccumulatingCycles) {
  std::vector<MicroOp> ops = {alu(), alu()};
  Harness h(wide_core(), ops);
  h.run();
  const auto cycles = h.core.stats().cycles;
  // Extra ticks after completion must not change the stats.
  for (Cycle c = 0; c < 10; ++c) h.core.tick(1000 + c);
  EXPECT_EQ(h.core.stats().cycles, cycles);
}

TEST(OooCore, HeadMemStallTracked) {
  std::vector<MicroOp> ops;
  ops.push_back(load(0, 0));
  MicroOp use = alu();
  use.dep_dist2 = 1;
  ops.push_back(use);
  Harness h(CoreConfig::in_order(), ops, 30);
  h.run();
  EXPECT_GT(h.core.stats().head_mem_stall_cycles, 10u);
}

// --- issue wakeup edge cases, each checked against check::RefCore ----------
//
// RefCore rescans the ROB every cycle and tests each waiting entry's
// producers directly; OooCore wakes entries by dependence count and walks
// an age-ordered ready set. Both must produce identical CoreStats and
// present memory requests in the identical order.

/// PerfectMemory timing that also logs each accepted request's sequence
/// number, in acceptance order.
class RecordingMemory final : public mem::MemoryLevel {
 public:
  RecordingMemory(std::uint32_t latency, std::uint32_t ports)
      : inner_(latency, ports) {}
  bool try_access(const mem::MemRequest& req) override {
    if (!inner_.try_access(req)) return false;
    accepted.push_back(req.id & ((std::uint64_t{1} << 48) - 1));
    return true;
  }
  void tick(Cycle now) override { inner_.tick(now); }
  void finalize(Cycle end) override { inner_.finalize(end); }
  [[nodiscard]] bool busy() const override { return inner_.busy(); }

  std::vector<std::uint64_t> accepted;

 private:
  mem::PerfectMemory inner_;
};

struct CoreRun {
  CoreStats stats;
  std::vector<std::uint64_t> accepted;
};

template <typename Core>
CoreRun run_core(const CoreConfig& cfg, const std::vector<MicroOp>& ops,
                 std::uint32_t latency, std::uint32_t ports) {
  trace::VectorTrace trace("t", ops);
  RecordingMemory mem(latency, ports);
  Core core(cfg, &trace, &mem, 1);
  for (Cycle now = 0; !core.finished() && now < 100000; ++now) {
    mem.tick(now);
    core.tick(now);
  }
  EXPECT_TRUE(core.finished());
  return CoreRun{core.stats(), std::move(mem.accepted)};
}

/// Runs both cores and requires identical stats and request order; returns
/// the optimized core's run for case-specific checks.
CoreRun run_against_reference(const CoreConfig& cfg,
                              const std::vector<MicroOp>& ops,
                              std::uint32_t latency = 10,
                              std::uint32_t ports = 0) {
  CoreRun opt = run_core<OooCore>(cfg, ops, latency, ports);
  const CoreRun ref = run_core<check::RefCore>(cfg, ops, latency, ports);
  EXPECT_TRUE(opt.stats == ref.stats);
  EXPECT_EQ(opt.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(opt.stats.l1_rejections, ref.stats.l1_rejections);
  EXPECT_EQ(opt.accepted, ref.accepted);
  return opt;
}

MicroOp with_deps(MicroOp op, std::uint32_t dep, std::uint32_t dep2) {
  op.dep_dist = dep;
  op.dep_dist2 = dep2;
  return op;
}

TEST(OooCoreWakeup, StoreWakesYoungerDependentInTheSameIssuePass) {
  // Both dispatch in cycle 0. In cycle 1 the store is accepted and done,
  // and the ALU that depends on it issues in that same pass (done at 2);
  // both commit in cycle 2, so the run takes 3 cycles. A wakeup deferred
  // to the next cycle would take 4.
  const std::vector<MicroOp> ops = {store(0), alu(1, 1)};
  const CoreRun run = run_against_reference(wide_core(), ops, /*latency=*/1);
  EXPECT_EQ(run.stats.cycles, 3u);

  // The same within a longer pass: alternating stores and their consumers.
  std::vector<MicroOp> chain;
  for (int i = 0; i < 200; ++i) {
    chain.push_back(store(static_cast<Addr>(i) * 64));
    chain.push_back(alu(2, 1));
  }
  (void)run_against_reference(wide_core(), chain, 3);
}

TEST(OooCoreWakeup, BouncedMemoryOpsStayReadyAndIssueOldestFirst) {
  // One L1 port: every cycle one load is accepted and the next ready one
  // bounces. Younger independent ALUs still issue past the bounced loads.
  std::vector<MicroOp> ops;
  for (int i = 0; i < 120; ++i) {
    ops.push_back(load(static_cast<Addr>(i) * 64));
    if (i % 3 == 0) ops.push_back(alu());
  }
  const CoreRun ported = run_against_reference(wide_core(), ops, 4, /*ports=*/1);
  EXPECT_GT(ported.stats.l1_rejections, 0u);
  EXPECT_TRUE(std::is_sorted(ported.accepted.begin(), ported.accepted.end()));

  // A two-entry LSQ: ready loads wait for a slot and take it oldest first.
  CoreConfig narrow_lsq = wide_core();
  narrow_lsq.lsq_size = 2;
  const CoreRun lsq = run_against_reference(narrow_lsq, ops, 7);
  EXPECT_TRUE(std::is_sorted(lsq.accepted.begin(), lsq.accepted.end()));
  EXPECT_EQ(lsq.accepted.size(), 120u);
}

TEST(OooCoreWakeup, BothDependencesOnTheSameProducer) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 300; ++i) {
    if (i % 4 == 0) {
      ops.push_back(with_deps(load(static_cast<Addr>(i) * 64), 2, 2));
    } else {
      ops.push_back(with_deps(alu(static_cast<std::uint8_t>(1 + i % 3)), 1, 1));
    }
  }
  const CoreRun run = run_against_reference(wide_core(), ops, 6);
  EXPECT_EQ(run.stats.instructions, 300u);
}

TEST(OooCoreWakeup, DependenceReachingBeforeTheFirstInstructionIsIgnored) {
  // dep_dist > index names no instruction: the first ops are independent.
  std::vector<MicroOp> ops;
  for (std::uint32_t i = 0; i < 8; ++i) ops.push_back(with_deps(alu(3), 9, 12));
  for (std::uint32_t i = 0; i < 40; ++i) ops.push_back(with_deps(alu(1), 1, 50));
  const CoreRun run = run_against_reference(wide_core(), ops);
  EXPECT_EQ(run.stats.instructions, 48u);
}

TEST(OooCoreWakeup, ProducerRetiredBeforeItsConsumerDispatches) {
  // A 4-entry ROB retires each producer long before a consumer 6 or 9
  // instructions later dispatches; such consumers are ready at dispatch.
  CoreConfig small = wide_core();
  small.iw_size = 4;
  small.rob_size = 4;
  std::vector<MicroOp> ops;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0) {
      ops.push_back(with_deps(load(static_cast<Addr>(i) * 64), 6, 0));
    } else {
      ops.push_back(with_deps(alu(2), 9, i % 2 == 0 ? 1 : 0));
    }
  }
  const CoreRun run = run_against_reference(small, ops, 5);
  EXPECT_EQ(run.stats.instructions, 200u);
}

}  // namespace
}  // namespace lpm::cpu
