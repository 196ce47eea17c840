// Robustness regressions for the experiment engine:
//  * retry_backoff_ms never overflows its shift or wraps, for any attempt
//    count or base (the bug: attempt 65+ shifted past 64 bits — UB — and
//    large bases wrapped to tiny delays);
//  * watchdog cancellation racing natural completion books each job
//    exactly once: executed + failed always equals the number of distinct
//    jobs, under every interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "exp/fault_plan.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm {
namespace {

std::vector<exp::SimJob> distinct_jobs(std::size_t count,
                                       std::uint64_t length = 2'000) {
  using trace::SpecBenchmark;
  const auto machine = sim::MachineConfig::single_core_default();
  const auto& all = trace::all_spec_benchmarks();
  std::vector<exp::SimJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(exp::SimJob::solo(
        machine, trace::spec_profile(all[i % all.size()], length, 11 + i / all.size()),
        /*calibrate=*/false, "rob" + std::to_string(i)));
  }
  return jobs;
}

// ---------------------------------------------------------------- backoff

TEST(RetryBackoff, HugeAttemptCountsNeverOverflowTheShift) {
  // attempt - 1 >= 64 used to shift past the width of uint64_t (UB, and in
  // practice a wrapped, near-zero delay). Every attempt count must clamp
  // to the cap instead.
  for (const unsigned attempt : {64u, 65u, 100u, 10'000u, 4'000'000'000u}) {
    const auto ms =
        exp::ExperimentEngine::retry_backoff_ms(1, 0xfeedULL, attempt, 10);
    EXPECT_LE(ms, exp::kMaxRetryBackoffMs) << "attempt=" << attempt;
    EXPECT_GT(ms, 0u) << "attempt=" << attempt;
  }
}

TEST(RetryBackoff, HugeBasesSaturateInsteadOfWrapping) {
  const std::uint64_t huge = ~0ULL - 3;
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(exp::ExperimentEngine::retry_backoff_ms(1, 2, attempt, huge),
              exp::kMaxRetryBackoffMs);
  }
  // A large-but-representable product also clamps rather than wraps.
  EXPECT_LE(exp::ExperimentEngine::retry_backoff_ms(1, 2, 40, 1'000'000),
            exp::kMaxRetryBackoffMs);
}

TEST(RetryBackoff, MonotoneInAttemptUntilTheExponentClamp) {
  const std::uint64_t base = 5;
  std::uint64_t prev = 0;
  for (unsigned attempt = 1; attempt <= 80; ++attempt) {
    const auto ms =
        exp::ExperimentEngine::retry_backoff_ms(7, 0xabcULL, attempt, base);
    // Jitter is bounded by base, so base<<(k-1) growth dominates: each
    // step is >= the previous one (modulo one jitter width) until the
    // exponent clamps.
    EXPECT_GE(ms + base, prev) << "attempt=" << attempt;
    EXPECT_LE(ms, exp::kMaxRetryBackoffMs);
    if (attempt >= 17) {
      // Exponent clamped: the delay plateaus at base << 16 plus jitter.
      EXPECT_GE(ms, base << 16) << "attempt=" << attempt;
      EXPECT_LE(ms, (base << 16) + base) << "attempt=" << attempt;
    }
    prev = ms;
  }
}

TEST(RetryBackoff, DeterministicPerSeedAndFingerprint) {
  const auto a = exp::ExperimentEngine::retry_backoff_ms(1, 2, 3, 10);
  const auto b = exp::ExperimentEngine::retry_backoff_ms(1, 2, 3, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(exp::ExperimentEngine::retry_backoff_ms(1, 2, 1, 1'000),
            exp::ExperimentEngine::retry_backoff_ms(2, 2, 1, 1'000));
}

// ------------------------------------- watchdog cancellation vs completion

TEST(WatchdogRace, HungJobIsCancelledAndSingleCounted) {
  // One injected hang among real work, retries off: the hung job must come
  // back kTimeout exactly once, everything else succeeds, and the books
  // balance: executed + failed == distinct jobs.
  const auto jobs = distinct_jobs(5);
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.cache_bytes = 0;
  opts.max_retries = 0;
  opts.job_timeout_ms = 50;
  opts.fault_plan = exp::FaultPlan::parse("hang@3");
  exp::ExperimentEngine engine(opts);

  const auto outcomes =
      engine.run_batch_outcomes(jobs, exp::FailurePolicy::kCollect);
  ASSERT_EQ(outcomes.size(), jobs.size());
  std::size_t ok = 0, timed_out = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(o.error, util::ErrorCode::kTimeout);
      ++timed_out;
    }
  }
  EXPECT_EQ(ok, jobs.size() - 1);
  EXPECT_EQ(timed_out, 1u);
  EXPECT_EQ(engine.retries_performed(), 0u);
  EXPECT_EQ(engine.simulations_executed(), ok);
  EXPECT_EQ(engine.jobs_failed(), timed_out);
  EXPECT_EQ(engine.simulations_executed() + engine.jobs_failed(), jobs.size());
}

TEST(WatchdogRace, CancellationRacingCompletionIsSingleCounted) {
  // Jobs sized so their natural runtime straddles the watchdog budget:
  // some finish just before the cancel, some just after. Whichever side of
  // the race each job lands on, the outcome is deterministic in shape —
  // success XOR typed timeout — and counted exactly once. Run several
  // rounds on a pooled engine to give the race every chance to bite.
  for (int round = 0; round < 3; ++round) {
    const auto jobs = distinct_jobs(8, 60'000);
    exp::ExperimentEngine::Options opts;
    opts.threads = 4;
    opts.cache_bytes = 0;
    opts.max_retries = 0;
    opts.job_timeout_ms = 1 + round;  // ~the natural runtime of one job
    exp::ExperimentEngine engine(opts);

    const auto outcomes =
        engine.run_batch_outcomes(jobs, exp::FailurePolicy::kCollect);
    ASSERT_EQ(outcomes.size(), jobs.size());
    std::size_t ok = 0, timed_out = 0;
    for (const auto& o : outcomes) {
      if (o.ok()) {
        EXPECT_EQ(o.error, util::ErrorCode::kNone);
        ++ok;
      } else {
        // A cancelled job must carry the typed timeout, a message, and no
        // half-built result object.
        EXPECT_EQ(o.error, util::ErrorCode::kTimeout) << o.error_message;
        EXPECT_FALSE(o.error_message.empty());
        EXPECT_EQ(o.result, nullptr);
        ++timed_out;
      }
    }
    EXPECT_EQ(ok + timed_out, jobs.size()) << "round=" << round;
    EXPECT_EQ(engine.simulations_executed(), ok) << "round=" << round;
    EXPECT_EQ(engine.jobs_failed(), timed_out) << "round=" << round;
    EXPECT_EQ(engine.retries_performed(), 0u);
  }
}

}  // namespace
}  // namespace lpm
