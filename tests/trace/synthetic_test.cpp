#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm::trace {
namespace {

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "test";
  p.fmem = 0.4;
  p.working_set_bytes = 64 * 1024;
  p.length = 20000;
  p.seed = 5;
  return p;
}

TEST(SyntheticTrace, EmitsExactlyLengthOps) {
  SyntheticTrace t(small_profile());
  MicroOp op;
  std::uint64_t n = 0;
  while (t.next(op)) ++n;
  EXPECT_EQ(n, small_profile().length);
  EXPECT_FALSE(t.next(op));  // stays exhausted
}

TEST(SyntheticTrace, ResetReplaysIdenticalStream) {
  SyntheticTrace t(small_profile());
  std::vector<MicroOp> first;
  MicroOp op;
  while (t.next(op)) first.push_back(op);
  t.reset();
  std::size_t i = 0;
  while (t.next(op)) {
    ASSERT_LT(i, first.size());
    EXPECT_EQ(op.type, first[i].type);
    EXPECT_EQ(op.addr, first[i].addr);
    EXPECT_EQ(op.dep_dist, first[i].dep_dist);
    EXPECT_EQ(op.dep_dist2, first[i].dep_dist2);
    ++i;
  }
  EXPECT_EQ(i, first.size());
}

TEST(SyntheticTrace, FmemMatchesProfile) {
  auto p = small_profile();
  p.fmem = 0.35;
  p.length = 50000;
  SyntheticTrace t(p);
  MicroOp op;
  std::uint64_t mem = 0;
  std::uint64_t total = 0;
  while (t.next(op)) {
    ++total;
    if (is_memory(op.type)) ++mem;
  }
  EXPECT_NEAR(static_cast<double>(mem) / total, 0.35, 0.01);
}

TEST(SyntheticTrace, StoreFractionRespected) {
  auto p = small_profile();
  p.store_fraction = 0.25;
  p.length = 50000;
  SyntheticTrace t(p);
  MicroOp op;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  while (t.next(op)) {
    if (op.type == OpType::kLoad) ++loads;
    if (op.type == OpType::kStore) ++stores;
  }
  EXPECT_NEAR(static_cast<double>(stores) / (loads + stores), 0.25, 0.02);
}

TEST(SyntheticTrace, AddressesStayInWorkingSet) {
  auto p = small_profile();
  p.working_set_bytes = 4096;
  SyntheticTrace t(p);
  MicroOp op;
  while (t.next(op)) {
    if (is_memory(op.type)) {
      EXPECT_LT(op.addr, p.working_set_bytes);
    }
  }
}

TEST(SyntheticTrace, PointerChaseCreatesLoadDeps) {
  auto p = small_profile();
  p.pointer_chase_fraction = 1.0;
  p.seq_fraction = 0.0;
  p.store_fraction = 0.0;
  p.length = 5000;
  SyntheticTrace t(p);
  MicroOp op;
  std::uint64_t idx = 0;
  std::uint64_t last_load = ~std::uint64_t{0};
  std::uint64_t chained = 0;
  std::uint64_t loads_after_first = 0;
  while (t.next(op)) {
    if (op.type == OpType::kLoad) {
      if (last_load != ~std::uint64_t{0}) {
        ++loads_after_first;
        if (op.dep_dist == idx - last_load) ++chained;
      }
      last_load = idx;
    }
    ++idx;
  }
  EXPECT_GT(loads_after_first, 0u);
  EXPECT_EQ(chained, loads_after_first);  // every load chains to the previous
}

TEST(SyntheticTrace, NoPointerChaseMeansIndependentLoads) {
  auto p = small_profile();
  p.pointer_chase_fraction = 0.0;
  p.load_use_fraction = 0.0;
  SyntheticTrace t(p);
  MicroOp op;
  while (t.next(op)) {
    if (op.type == OpType::kLoad) EXPECT_EQ(op.dep_dist, 0u);
  }
}

TEST(SyntheticTrace, SequentialStreamsAdvanceByStride) {
  auto p = small_profile();
  p.seq_fraction = 1.0;
  p.num_streams = 1;
  p.stride_bytes = 64;
  p.fmem = 1.0;
  p.store_fraction = 0.0;
  p.length = 100;
  SyntheticTrace t(p);
  MicroOp op;
  Addr prev = 0;
  bool first = true;
  while (t.next(op)) {
    if (!first) {
      const Addr expect = (prev + 64) % p.working_set_bytes;
      EXPECT_EQ(op.addr, expect);
    }
    prev = op.addr;
    first = false;
  }
}

TEST(SyntheticTrace, BurstPhaseGroundTruthIsDeterministic) {
  auto p = small_profile();
  p.phase_length = 100;
  p.burst_duty = 0.4;
  int bursts = 0;
  for (std::uint64_t ph = 0; ph < 200; ++ph) {
    const bool a = SyntheticTrace::is_burst_phase(p, ph);
    const bool b = SyntheticTrace::is_burst_phase(p, ph);
    EXPECT_EQ(a, b);
    if (a) ++bursts;
  }
  EXPECT_NEAR(bursts / 200.0, 0.4, 0.12);
}

TEST(SyntheticTrace, NoPhasesMeansNoBursts) {
  auto p = small_profile();
  p.phase_length = 0;
  EXPECT_FALSE(SyntheticTrace::is_burst_phase(p, 0));
  EXPECT_FALSE(SyntheticTrace::is_burst_phase(p, 5));
}

TEST(SyntheticTrace, BurstPhasesAreMoreMemoryIntense) {
  auto p = small_profile();
  p.fmem = 0.1;
  p.phase_length = 500;
  p.burst_duty = 0.5;
  p.burst_fmem = 0.9;
  p.length = 100000;
  SyntheticTrace t(p);
  MicroOp op;
  std::uint64_t idx = 0;
  std::uint64_t burst_mem = 0, burst_total = 0, calm_mem = 0, calm_total = 0;
  while (t.next(op)) {
    const bool burst = SyntheticTrace::is_burst_phase(p, idx / p.phase_length);
    if (burst) {
      ++burst_total;
      if (is_memory(op.type)) ++burst_mem;
    } else {
      ++calm_total;
      if (is_memory(op.type)) ++calm_mem;
    }
    ++idx;
  }
  ASSERT_GT(burst_total, 0u);
  ASSERT_GT(calm_total, 0u);
  EXPECT_GT(static_cast<double>(burst_mem) / burst_total, 0.8);
  EXPECT_LT(static_cast<double>(calm_mem) / calm_total, 0.2);
}

/// FNV-1a 64 over `bytes` little-endian bytes of `v`, folded into `h`.
void fnv_mix(std::uint64_t& h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

/// Folds every field of every op `profile` generates into `h`, pulled
/// through fill() in chunks that do not divide the length.
void digest_stream(std::uint64_t& h, const WorkloadProfile& profile) {
  SyntheticTrace t(profile);
  std::vector<MicroOp> buf(3000);
  std::uint64_t total = 0;
  for (std::size_t got; (got = t.fill(buf.data(), buf.size())) > 0;) {
    for (std::size_t i = 0; i < got; ++i) {
      const MicroOp& op = buf[i];
      fnv_mix(h, static_cast<std::uint64_t>(op.type), 1);
      fnv_mix(h, op.addr, 8);
      fnv_mix(h, op.dep_dist, 4);
      fnv_mix(h, op.dep_dist2, 4);
      fnv_mix(h, op.exec_latency, 1);
    }
    total += got;
  }
  EXPECT_EQ(total, profile.length) << profile.name;
}

// Pins the synthetic op stream bit for bit: every recorded trace, every
// fingerprint-keyed result and lpmbench's expected answers derive from
// these ops, so a generator change that moves any of them shows here.
TEST(SyntheticTrace, StreamDigestIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const SpecBenchmark b : all_spec_benchmarks()) {
    for (const std::uint64_t length : {20000u, 100000u}) {
      for (const std::uint64_t seed : {1u, 2026u}) {
        digest_stream(h, spec_profile(b, length, seed));
      }
    }
  }
  digest_stream(h, burst_profile(500, 0.5));
  EXPECT_EQ(h, 0xacb1041a2b1909a2ULL);
}

TEST(WorkloadProfile, ValidationCatchesBadFields) {
  auto p = small_profile();
  p.fmem = 1.5;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.working_set_bytes = 8;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.num_streams = 0;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.length = 0;
  EXPECT_THROW(p.validate(), util::LpmError);
  p = small_profile();
  p.zipf_skew = -0.1;
  EXPECT_THROW(p.validate(), util::LpmError);
}

TEST(VectorTrace, ReplaysAndResets) {
  std::vector<MicroOp> ops(3);
  ops[0].type = OpType::kAlu;
  ops[1].type = OpType::kLoad;
  ops[1].addr = 64;
  ops[2].type = OpType::kStore;
  VectorTrace t("vec", ops);
  MicroOp op;
  EXPECT_TRUE(t.next(op));
  EXPECT_EQ(op.type, OpType::kAlu);
  EXPECT_TRUE(t.next(op));
  EXPECT_EQ(op.addr, 64u);
  EXPECT_TRUE(t.next(op));
  EXPECT_FALSE(t.next(op));
  t.reset();
  EXPECT_TRUE(t.next(op));
  EXPECT_EQ(t.name(), "vec");
}

}  // namespace
}  // namespace lpm::trace
