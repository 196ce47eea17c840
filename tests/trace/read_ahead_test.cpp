// The read-ahead front end must be invisible to its consumer: trace::ReadAhead
// over a SyntheticTrace yields the fresh SyntheticTrace stream op for op at
// every fill size, after reset() mid-stream and at end, and at lengths below
// one block and at exact block multiples. Destroying it mid-stream joins its
// helper promptly, an exception from the inner source reaches the consumer
// with its type, and an engine cycle job (which reads through it) returns
// the SystemResult of a plain inline run.
#include "trace/read_ahead.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace lpm::trace {
namespace {

std::vector<MicroOp> reference(const WorkloadProfile& profile) {
  SyntheticTrace fresh(profile);
  return materialize(fresh, profile.length + 1);
}

std::unique_ptr<ReadAhead> read_ahead(const WorkloadProfile& profile) {
  return std::make_unique<ReadAhead>(std::make_unique<SyntheticTrace>(profile));
}

/// Drains `src` in chunks of `chunk` ops, up to `limit` ops.
std::vector<MicroOp> drain(TraceSource& src, std::size_t chunk,
                           std::size_t limit = ~std::size_t{0}) {
  std::vector<MicroOp> ops;
  std::vector<MicroOp> buf(chunk);
  while (ops.size() < limit) {
    const std::size_t want = std::min(chunk, limit - ops.size());
    const std::size_t got = src.fill(buf.data(), want);
    ops.insert(ops.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < want) break;
  }
  return ops;
}

/// Checks that `got` is a prefix of `want`, naming the first differing op.
void expect_prefix(const std::vector<MicroOp>& want,
                   const std::vector<MicroOp>& got) {
  ASSERT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i]) << "op " << i;
  }
}

void expect_same(const std::vector<MicroOp>& want,
                 const std::vector<MicroOp>& got) {
  ASSERT_EQ(got.size(), want.size());
  expect_prefix(want, got);
}

TEST(ReadAhead, MatchesSyntheticOnAllProfilesAtEveryFillSize) {
  for (const SpecBenchmark b : all_spec_benchmarks()) {
    // Not a block multiple, so the final block is partial.
    const WorkloadProfile profile = spec_profile(b, 6000 + 37, 29);
    const std::vector<MicroOp> want = reference(profile);
    for (const std::size_t chunk : {1ul, 7ul, 256ul, 1024ul, 5000ul}) {
      SCOPED_TRACE(profile.name + " chunk " + std::to_string(chunk));
      const auto src = read_ahead(profile);
      expect_same(want, drain(*src, chunk));
      MicroOp op;
      EXPECT_FALSE(src->next(op));  // end stays end
      EXPECT_EQ(src->fill(&op, 1), 0u);
    }
  }
}

TEST(ReadAhead, NextMatchesFill) {
  const WorkloadProfile profile = burst_profile(500, 0.5, 4000, 7);
  const auto src = read_ahead(profile);
  std::vector<MicroOp> ops;
  MicroOp op;
  while (src->next(op)) ops.push_back(op);
  expect_same(reference(profile), ops);
}

TEST(ReadAhead, ResetMidStreamAndAtEndReplaysTheStream) {
  const WorkloadProfile profile =
      spec_profile(SpecBenchmark::kMcf, 5 * ReadAhead::kBlockOps + 100, 3);
  const std::vector<MicroOp> want = reference(profile);
  const auto src = read_ahead(profile);
  // Mid-stream: the helper is blocks ahead of the consumer when reset.
  expect_prefix(want, drain(*src, 256, 1500));
  src->reset();
  expect_same(want, drain(*src, 256));
  // At end: the helper has already exited.
  src->reset();
  expect_same(want, drain(*src, 1000));
  // Reset before any read, and twice in a row.
  src->reset();
  src->reset();
  expect_same(want, drain(*src, 7));
}

TEST(ReadAhead, ShortAndBlockMultipleLengths) {
  constexpr std::size_t kBlock = ReadAhead::kBlockOps;
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{100}, kBlock - 1, kBlock, kBlock + 1,
        ReadAhead::kBlocks * kBlock, 4 * kBlock}) {
    SCOPED_TRACE("length " + std::to_string(length));
    const WorkloadProfile profile =
        spec_profile(SpecBenchmark::kGcc, length, 5);
    const std::vector<MicroOp> want = reference(profile);
    ASSERT_EQ(want.size(), length);
    for (const std::size_t chunk : {1ul, kBlock, 5000ul}) {
      const auto src = read_ahead(profile);
      expect_same(want, drain(*src, chunk));
    }
  }
}

TEST(ReadAhead, DestroyMidStreamJoinsPromptly) {
  // Generating this stream inline takes seconds; the helper must stop within
  // a block of where the consumer left off.
  const WorkloadProfile profile =
      spec_profile(SpecBenchmark::kLibquantum, 50'000'000, 1);
  auto src = read_ahead(profile);
  MicroOp op;
  ASSERT_TRUE(src->next(op));
  const auto start = std::chrono::steady_clock::now();
  src.reset();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));

  // Never read: no helper to join.
  { ReadAhead unread(std::make_unique<SyntheticTrace>(profile)); }
}

/// Yields the inner stream, then throws util::IoError from the fill() that
/// would cross `fail_at` ops.
class FailingSource final : public TraceSource {
 public:
  FailingSource(const WorkloadProfile& profile, std::size_t fail_at)
      : inner_(profile), fail_at_(fail_at) {}
  bool next(MicroOp& op) override { return fill(&op, 1) == 1; }
  std::size_t fill(MicroOp* dst, std::size_t n) override {
    if (emitted_ + n > fail_at_) throw util::IoError("disk went away");
    emitted_ += n;
    return inner_.fill(dst, n);
  }
  void reset() override {
    inner_.reset();
    emitted_ = 0;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  SyntheticTrace inner_;
  std::size_t fail_at_;
  std::size_t emitted_ = 0;
};

TEST(ReadAhead, InnerErrorSurfacesOnTheConsumerWithItsType) {
  const WorkloadProfile profile =
      spec_profile(SpecBenchmark::kSoplex, 20000, 11);
  const std::vector<MicroOp> want = reference(profile);
  // The helper fills whole blocks, so the third block's fill throws.
  ReadAhead src(std::make_unique<FailingSource>(profile, 2500));
  std::vector<MicroOp> buf(256);
  std::vector<MicroOp> got;
  for (int i = 0; i < 8; ++i) {  // the two good blocks arrive first
    ASSERT_EQ(src.fill(buf.data(), buf.size()), buf.size());
    got.insert(got.end(), buf.begin(), buf.end());
  }
  expect_prefix(want, got);
  EXPECT_THROW(src.fill(buf.data(), buf.size()), util::IoError);
  MicroOp op;
  EXPECT_THROW(src.next(op), util::IoError);  // until reset
  src.reset();
  EXPECT_EQ(src.fill(buf.data(), buf.size()), buf.size());
  expect_prefix(want, buf);
}

TEST(ReadAhead, EngineCycleJobEqualsAnInlineRun) {
  const auto machine = sim::MachineConfig::single_core_default();
  const WorkloadProfile profile = spec_profile(SpecBenchmark::kGcc, 30000, 13);
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options{.threads = 1});
  const exp::SimResultPtr job =
      engine.run(exp::SimJob::solo(machine, profile, /*calibrate=*/true));

  std::vector<TraceSourcePtr> traces;
  traces.push_back(std::make_unique<SyntheticTrace>(profile));
  sim::System inline_system(machine, std::move(traces));
  EXPECT_TRUE(job->run == inline_system.run());

  SyntheticTrace calibration_trace(profile);
  ASSERT_EQ(job->calib.size(), 1u);
  EXPECT_TRUE(job->calib[0] ==
              sim::measure_cpi_exe(machine, calibration_trace));
}

}  // namespace
}  // namespace lpm::trace
