// The fill() contract: the concatenation of batched chunks must be
// byte-identical to the stream repeated next() calls produce — batching is
// purely a throughput change. Covered per source (synthetic incl. burst
// phases, vector, the LPM2 file reader) and end-to-end: a
// System fed through a next()-only proxy produces the exact SystemResult of
// the batched path, and a System replaying a recorded LPM2 file produces
// the exact SystemResult of the live synthetic stream on all 16 profiles.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/lpmt_file.hpp"
#include "common/temp_path.hpp"
#include "sim/system.hpp"
#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_source.hpp"

namespace lpm::trace {
namespace {

std::vector<MicroOp> drain_with_next(TraceSource& src) {
  std::vector<MicroOp> ops;
  MicroOp op;
  while (src.next(op)) ops.push_back(op);
  return ops;
}

std::vector<MicroOp> drain_with_fill(TraceSource& src, std::size_t chunk) {
  std::vector<MicroOp> ops;
  std::vector<MicroOp> buf(chunk);
  while (true) {
    const std::size_t got = src.fill(buf.data(), chunk);
    ops.insert(ops.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < chunk) break;
  }
  return ops;
}

void expect_same_stream(const std::vector<MicroOp>& a,
                        const std::vector<MicroOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].type, b[i].type) << "op " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "op " << i;
    ASSERT_EQ(a[i].dep_dist, b[i].dep_dist) << "op " << i;
    ASSERT_EQ(a[i].dep_dist2, b[i].dep_dist2) << "op " << i;
    ASSERT_EQ(a[i].exec_latency, b[i].exec_latency) << "op " << i;
  }
}

void expect_fill_matches_next(const WorkloadProfile& profile) {
  // Chunk sizes around and away from the core's batch size, including a
  // non-divisor of the trace length and single-op batches.
  for (const std::size_t chunk : {1ul, 7ul, 256ul, 1000ul}) {
    SyntheticTrace by_next(profile);
    SyntheticTrace by_fill(profile);
    expect_same_stream(drain_with_next(by_next),
                       drain_with_fill(by_fill, chunk));
  }
}

TEST(FillDeterminism, SyntheticMatchesNext) {
  expect_fill_matches_next(spec_profile(SpecBenchmark::kBwaves, 5000, 17));
  expect_fill_matches_next(spec_profile(SpecBenchmark::kMcf, 5000, 3));
}

TEST(FillDeterminism, BurstProfileMatchesNext) {
  // Phase boundaries exercise the mid-stream profile switches.
  expect_fill_matches_next(burst_profile(500, 0.5, 6000, 7));
}

TEST(FillDeterminism, VectorTraceMatchesNext) {
  SyntheticTrace gen(spec_profile(SpecBenchmark::kGcc, 3000, 5));
  std::vector<MicroOp> ops;
  MicroOp op;
  while (gen.next(op)) ops.push_back(op);

  for (const std::size_t chunk : {1ul, 64ul, 4096ul}) {
    VectorTrace by_next("v", ops);
    VectorTrace by_fill("v", ops);
    expect_same_stream(drain_with_next(by_next),
                       drain_with_fill(by_fill, chunk));
  }
}

TEST(FillDeterminism, Lpm2TraceMatchesNext) {
  const std::string path = test::temp_path("fill.lpm2");
  SyntheticTrace gen(spec_profile(SpecBenchmark::kSoplex, 3000, 11));
  record_trace_v2(gen, path);

  Lpm2Trace by_next(path);
  Lpm2Trace by_fill(path);
  expect_same_stream(drain_with_next(by_next), drain_with_fill(by_fill, 100));
  std::remove(path.c_str());
}

/// Forwards next()/reset() only, hiding the wrapped source's fill()
/// override so the base class's next()-loop fallback runs — i.e. the
/// unbatched path a pre-fill() TraceSource would take.
class NextOnlyProxy final : public TraceSource {
 public:
  explicit NextOnlyProxy(TraceSourcePtr inner) : inner_(std::move(inner)) {}
  bool next(MicroOp& op) override { return inner_->next(op); }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  TraceSourcePtr inner_;
};

/// Runs one source through a single-core default System.
sim::SystemResult run_system(TraceSourcePtr src) {
  std::vector<TraceSourcePtr> traces;
  traces.push_back(std::move(src));
  sim::System sys(sim::MachineConfig::single_core_default(), std::move(traces));
  return sys.run();
}

/// Field-wise identity of the counters a divergence would surface in (the
/// structs carry no operator==; this mirrors the differential oracle's
/// counter set for a single-core run).
void expect_same_system_result(const sim::SystemResult& a,
                               const sim::SystemResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  EXPECT_EQ(a.cores[0].instructions, b.cores[0].instructions);
  EXPECT_EQ(a.cores[0].mem_ops, b.cores[0].mem_ops);
  EXPECT_EQ(a.cores[0].data_stall_cycles, b.cores[0].data_stall_cycles);
  EXPECT_EQ(a.cores[0].overlap_cycles, b.cores[0].overlap_cycles);
  ASSERT_EQ(a.l1_cache.size(), b.l1_cache.size());
  EXPECT_EQ(a.l1_cache[0].accesses, b.l1_cache[0].accesses);
  EXPECT_EQ(a.l1_cache[0].misses, b.l1_cache[0].misses);
  EXPECT_EQ(a.l2_cache.accesses, b.l2_cache.accesses);
  EXPECT_EQ(a.l2_cache.misses, b.l2_cache.misses);
  EXPECT_EQ(a.dram_stats.reads, b.dram_stats.reads);
  EXPECT_EQ(a.l1[0].pure_miss_cycles, b.l1[0].pure_miss_cycles);
  EXPECT_EQ(a.l2.pure_miss_cycles, b.l2.pure_miss_cycles);
}

TEST(FillDeterminism, SystemResultIdenticalBatchedVsUnbatched) {
  const auto profile = spec_profile(SpecBenchmark::kBwaves, 20000, 17);
  const sim::SystemResult a =
      run_system(std::make_unique<SyntheticTrace>(profile));
  const sim::SystemResult b = run_system(std::make_unique<NextOnlyProxy>(
      std::make_unique<SyntheticTrace>(profile)));
  expect_same_system_result(a, b);
}

// --- recorded LPM2 replay joins the determinism net ------------------------

/// One recorded LPM2 file per fixture run, longer than one reader chunk
/// (kIoBatchOps) and ending mid-chunk.
class Lpm2Determinism : public testing::Test {
 protected:
  void SetUp() override {
    path_ = test::temp_path("determinism.lpm2");
    profile_ = spec_profile(SpecBenchmark::kGcc, 5000, 23);
    SyntheticTrace gen(profile_);
    record_trace_v2(gen, path_);
    SyntheticTrace live(profile_);
    expected_ = drain_with_next(live);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  WorkloadProfile profile_;
  std::vector<MicroOp> expected_;
};

TEST_F(Lpm2Determinism, ReaderMatchesSyntheticAtEveryChunkSize) {
  // Pull sizes from single ops to the reader's own chunk size, including a
  // non-divisor of the trace length and of the chunk.
  for (const std::size_t chunk : {1ul, 7ul, 64ul, 4096ul}) {
    Lpm2Trace by_fill(path_, "by-fill");
    expect_same_stream(expected_, drain_with_fill(by_fill, chunk));
  }
  Lpm2Trace by_next(path_, "by-next");
  expect_same_stream(expected_, drain_with_next(by_next));
}

TEST_F(Lpm2Determinism, MidStreamResetReplaysTheIdenticalStream) {
  Lpm2Trace src(path_, "reset");
  // Consume a prefix that ends mid-chunk, then rewind: the full replay
  // must match the untouched stream exactly.
  std::vector<MicroOp> prefix(expected_.size() / 3 + 5);
  ASSERT_EQ(src.fill(prefix.data(), prefix.size()), prefix.size());
  src.reset();
  expect_same_stream(expected_, drain_with_fill(src, 100));
  // And a reset after full exhaustion replays again too.
  src.reset();
  expect_same_stream(expected_, drain_with_next(src));
}

TEST_F(Lpm2Determinism, V1ResidentAndV2StreamingReplayIdentically) {
  // A v1 recording of the same stream, brought in through the one v1 entry
  // point (convert), must replay exactly the stream of the direct LPM2
  // recording.
  const std::string v1_path = test::temp_path("determinism.lpmt");
  const std::string converted = test::temp_path("converted.lpm2");
  test::write_lpmt(v1_path, expected_);
  (void)convert_lpmt_trace(v1_path, converted);

  Lpm2Trace from_v1(converted, "v1");
  expect_same_stream(expected_, drain_with_fill(from_v1, 64));
  Lpm2Trace from_v2(path_, "v2");
  expect_same_stream(expected_, drain_with_fill(from_v2, 64));
  std::remove(v1_path.c_str());
  std::remove(converted.c_str());
}

TEST(FillDeterminism, FileReplayMatchesLiveSyntheticOnAllSpecProfiles) {
  // The record → make_trace replay → simulate path must be bit-identical
  // to simulating the live generator, for every profile in the catalog.
  const std::string path = test::temp_path("profiles.lpm2");
  std::size_t i = 0;
  for (const SpecBenchmark bench : all_spec_benchmarks()) {
    const auto profile = spec_profile(bench, 4000, 29 + i);
    {
      SyntheticTrace gen(profile);
      record_trace_v2(gen, path);
    }
    const sim::SystemResult live =
        run_system(std::make_unique<SyntheticTrace>(profile));
    const sim::SystemResult replay =
        run_system(make_trace(trace_file_profile(path, spec_name(bench))));
    SCOPED_TRACE(spec_name(bench));
    expect_same_system_result(live, replay);
    ++i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpm::trace
