// Replay file format: op-string and whole-case round trips must be
// lossless (a repro that mutates in transit is worse than none), and
// malformed input must be rejected with a diagnostic, not misparsed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/replay.hpp"
#include "sim/machine_config.hpp"
#include "util/error.hpp"

namespace lpm::check {
namespace {

TEST(Replay, OpsRoundTrip) {
  std::vector<trace::MicroOp> ops;
  ops.push_back({trace::OpType::kAlu, 0, 0, 0, 3});
  ops.push_back({trace::OpType::kLoad, 0xdeadbeef, 2, 0, 1});
  ops.push_back({trace::OpType::kStore, 0xffff'ffff'ffff'ffc0ULL, 7, 3, 1});
  ops.push_back({trace::OpType::kLoad, 0, 1, 1, 1});

  const std::string text = encode_ops(ops);
  EXPECT_EQ(decode_ops(text), ops);
}

TEST(Replay, EmptyOpsEncodeToEmptyString) {
  EXPECT_EQ(encode_ops({}), "");
  EXPECT_TRUE(decode_ops("").empty());
}

TEST(Replay, CaseRoundTripPreservesMachineAndOps) {
  // A fuzzer-generated case exercises the full key set (random caches,
  // DRAM, core widths); the round trip must reproduce it field for field.
  Fuzzer fuzzer;
  const ReplayCase c = fuzzer.generate(5);

  const std::string text = replay_to_json(c);
  const ReplayCase back = replay_from_json(text);

  EXPECT_EQ(back.ops, c.ops);
  // MachineConfig has no operator==; a second serialization being
  // byte-identical proves every field the format carries survived.
  EXPECT_EQ(replay_to_json(back), text);
}

TEST(Replay, PrivateL2AndHeterogeneousL1Survive) {
  auto machine = sim::MachineConfig::three_level_default();
  ReplayCase c;
  c.machine = machine;
  c.ops.push_back(decode_ops("l40:0:0:1;a0:1:0:2;sbeef00:2:0:1"));

  const std::string text = replay_to_json(c);
  const ReplayCase back = replay_from_json(text);
  EXPECT_TRUE(back.machine.use_private_l2);
  EXPECT_EQ(replay_to_json(back), text);

  auto hetero = sim::MachineConfig::single_core_default();
  hetero.num_cores = 2;
  hetero.l1_size_per_core = {4 * 1024, 64 * 1024};
  ReplayCase h;
  h.machine = hetero;
  h.ops = {decode_ops("l0:0:0:1"), decode_ops("s40:0:0:1")};
  const ReplayCase hback = replay_from_json(replay_to_json(h));
  EXPECT_EQ(hback.machine.l1_size_per_core,
            (std::vector<std::uint64_t>{4 * 1024, 64 * 1024}));
  EXPECT_EQ(hback.ops, h.ops);
}

TEST(Replay, SixtyFourBitValuesSurviveAsStrings) {
  // Seeds and cycle budgets above 2^53 would be mangled by the double-typed
  // JSON number path; the format routes them through strings instead.
  auto machine = sim::MachineConfig::single_core_default();
  machine.max_cycles = 0xfedc'ba98'7654'3210ULL;
  machine.l1.seed = (1ULL << 63) | 12345;
  ReplayCase c;
  c.machine = machine;
  c.ops.push_back(decode_ops("a0:0:0:1"));

  const ReplayCase back = replay_from_json(replay_to_json(c));
  EXPECT_EQ(back.machine.max_cycles, 0xfedc'ba98'7654'3210ULL);
  EXPECT_EQ(back.machine.l1.seed, (1ULL << 63) | 12345);
}

TEST(Replay, MakeTracesReplaysTheOpsVerbatim) {
  ReplayCase c;
  c.machine = sim::MachineConfig::single_core_default();
  c.ops.push_back(decode_ops("l40:0:0:1;a0:1:0:2;s80:0:0:1"));

  auto traces = c.make_traces();
  ASSERT_EQ(traces.size(), 1u);
  std::vector<trace::MicroOp> drained;
  trace::MicroOp op;
  while (traces[0]->next(op)) drained.push_back(op);
  EXPECT_EQ(drained, c.ops[0]);
}

// A replay file exactly as the multi-line writer of earlier releases laid
// it out (two cores, private L2s, heterogeneous L1s, a 64-bit cycle
// budget). Repro artifacts saved by CI in that layout must stay loadable
// by tools/lpm_replay.
constexpr const char* kPrettyPrintedCase = R"({
  "format": "lpm-replay-v1",
  "num_cores": 2,
  "max_cycles": "18364758544493064720",
  "use_private_l2": true,
  "l1_size_per_core": "4096,16384",
  "core.issue_width": 4,
  "core.dispatch_width": 4,
  "core.commit_width": 4,
  "core.iw_size": 32,
  "core.rob_size": 32,
  "core.lsq_size": 16,
  "l1.size_bytes": 32768,
  "l1.block_bytes": 64,
  "l1.associativity": 4,
  "l1.hit_latency": 3,
  "l1.ports": 1,
  "l1.banks": 1,
  "l1.interleave_bytes": 64,
  "l1.mshr_entries": 4,
  "l1.mshr_targets": 8,
  "l1.writeback_capacity": 8,
  "l1.prefetch_degree": 6,
  "l1.prefetch_accuracy_window": 256,
  "l1.mshr_quota_per_core": 0,
  "l1.replacement": "lru",
  "l1.seed": "99",
  "l2.size_bytes": 4194304,
  "l2.block_bytes": 64,
  "l2.associativity": 16,
  "l2.hit_latency": 24,
  "l2.ports": 2,
  "l2.banks": 8,
  "l2.interleave_bytes": 64,
  "l2.mshr_entries": 32,
  "l2.mshr_targets": 8,
  "l2.writeback_capacity": 8,
  "l2.prefetch_degree": 0,
  "l2.prefetch_accuracy_window": 256,
  "l2.mshr_quota_per_core": 0,
  "l2.replacement": "lru",
  "l2.seed": "99",
  "private_l2.size_bytes": 262144,
  "private_l2.block_bytes": 64,
  "private_l2.associativity": 8,
  "private_l2.hit_latency": 10,
  "private_l2.ports": 2,
  "private_l2.banks": 2,
  "private_l2.interleave_bytes": 64,
  "private_l2.mshr_entries": 12,
  "private_l2.mshr_targets": 8,
  "private_l2.writeback_capacity": 8,
  "private_l2.prefetch_degree": 0,
  "private_l2.prefetch_accuracy_window": 256,
  "private_l2.mshr_quota_per_core": 0,
  "private_l2.replacement": "lru",
  "private_l2.seed": "99",
  "dram.banks": 8,
  "dram.row_bytes": 2048,
  "dram.interleave_bytes": 64,
  "dram.t_rcd": 12,
  "dram.t_cl": 12,
  "dram.t_rp": 12,
  "dram.t_burst": 4,
  "dram.frontend_latency": 18,
  "dram.queue_capacity": 32,
  "dram.max_issue_per_cycle": 1,
  "dram.starvation_threshold": 200,
  "ops.0": "l40:0:0:1;a0:1:0:2;sbeef00:2:0:1",
  "ops.1": "s40:0:0:1"
}
)";

std::string without_whitespace(std::string text) {
  std::erase_if(text, [](char c) { return c == ' ' || c == '\n'; });
  return text;
}

TEST(Replay, PrettyPrintedLegacyFileStillLoads) {
  const ReplayCase c = replay_from_json(kPrettyPrintedCase);
  EXPECT_EQ(c.machine.num_cores, 2u);
  EXPECT_EQ(c.machine.max_cycles, 0xfedc'ba98'7654'3210ULL);
  EXPECT_TRUE(c.machine.use_private_l2);
  EXPECT_EQ(c.machine.l1_size_per_core,
            (std::vector<std::uint64_t>{4 * 1024, 16 * 1024}));
  EXPECT_EQ(c.machine.l1.mshr_entries, 4u);
  EXPECT_EQ(c.machine.private_l2.size_bytes, 256u * 1024u);
  EXPECT_EQ(c.machine.dram.starvation_threshold, 200u);
  ASSERT_EQ(c.ops.size(), 2u);
  EXPECT_EQ(c.ops[0], decode_ops("l40:0:0:1;a0:1:0:2;sbeef00:2:0:1"));
  EXPECT_EQ(c.ops[1], decode_ops("s40:0:0:1"));
  // Re-saving it changes nothing but whitespace (no value here holds any).
  EXPECT_EQ(without_whitespace(replay_to_json(c)),
            without_whitespace(kPrettyPrintedCase));
}

TEST(Replay, RejectsMalformedInput) {
  EXPECT_THROW((void)replay_from_json("not json"), util::LpmError);
  EXPECT_THROW((void)replay_from_json("{\"format\": \"something-else\"}"),
               util::LpmError);
  // Right tag but a required key missing.
  EXPECT_THROW((void)replay_from_json("{\"format\": \"lpm-replay-v1\"}"),
               util::LpmError);
  EXPECT_THROW((void)decode_ops("x40:0:0:1"), util::LpmError);  // bad op type
  EXPECT_THROW((void)decode_ops("l"), util::LpmError);          // truncated
  EXPECT_THROW((void)decode_ops("l40:0"), util::LpmError);      // short token
}

TEST(Replay, SaveLoadRoundTripsThroughDisk) {
  Fuzzer fuzzer;
  const ReplayCase c = fuzzer.generate(9);
  const std::string path = "replay_roundtrip_test.json";
  save_replay(c, path);
  const ReplayCase back = load_replay(path);
  EXPECT_EQ(back.ops, c.ops);
  EXPECT_EQ(replay_to_json(back), replay_to_json(c));
  std::remove(path.c_str());

  EXPECT_THROW((void)load_replay("does-not-exist.json"), util::LpmError);
}

}  // namespace
}  // namespace lpm::check
