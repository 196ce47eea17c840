// Fault-tolerance guarantees of the experiment engine, exercised through
// deterministic fault injection (exp::FaultPlan): pooled outcomes match
// serial ones job-for-job, retries recover transient failures on a fixed
// schedule, the watchdog cancels hung jobs cooperatively, and fail-fast
// never drops an outcome.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "exp/fault_plan.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm {
namespace {

/// Digest over the counters that drive every downstream consumer; equal
/// digests mean the runs are interchangeable (full bit-identity of the
/// pooled engine is asserted by experiment_engine_test.cpp).
std::uint64_t digest(const exp::SimJobResult& r) {
  util::Fingerprint f;
  f.mix(r.run.completed).mix(r.run.cycles);
  for (const auto& c : r.run.cores) {
    f.mix(c.instructions).mix(c.cycles).mix(c.data_stall_cycles);
  }
  f.mix(r.run.l2.accesses).mix(r.run.l2.misses).mix(r.run.dram.accesses);
  for (const auto& c : r.calib) f.mix(c.instructions).mix(c.cycles);
  return f.value();
}

/// Five distinct short solo points (distinct fingerprints, so a fresh
/// engine assigns them executed-point indices 1..5 in submission order).
std::vector<exp::SimJob> five_jobs() {
  using trace::SpecBenchmark;
  const auto machine = sim::MachineConfig::single_core_default();
  std::vector<exp::SimJob> jobs;
  const SpecBenchmark benchmarks[] = {
      SpecBenchmark::kBwaves, SpecBenchmark::kGcc, SpecBenchmark::kMilc,
      SpecBenchmark::kMcf, SpecBenchmark::kSoplex};
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(exp::SimJob::solo(
        machine, trace::spec_profile(benchmarks[i], 10'000, 7),
        /*calibrate=*/i % 2 == 0, "job" + std::to_string(i)));
  }
  return jobs;
}

TEST(FaultPlan, ParsesSpecAndRejectsGarbage) {
  const auto plan = exp::FaultPlan::parse("throw@3,hang@7,io@12");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.at(3), exp::FaultKind::kThrow);
  EXPECT_EQ(plan.at(7), exp::FaultKind::kHang);
  EXPECT_EQ(plan.at(12), exp::FaultKind::kIo);
  EXPECT_EQ(plan.at(1), std::nullopt);
  EXPECT_TRUE(exp::FaultPlan::parse("").empty());

  EXPECT_THROW((void)exp::FaultPlan::parse("explode@3"), util::ConfigError);
  EXPECT_THROW((void)exp::FaultPlan::parse("throw@zero"), util::ConfigError);
  EXPECT_THROW((void)exp::FaultPlan::parse("throw@0"), util::ConfigError);
  EXPECT_THROW((void)exp::FaultPlan::parse("throw@2,io@2"), util::ConfigError);
}

TEST(FaultInjection, PooledOutcomesIdenticalToSerial) {
  const auto jobs = five_jobs();

  const auto run_with = [&jobs](unsigned threads) {
    exp::ExperimentEngine::Options opts;
    opts.threads = threads;
    opts.fault_plan = exp::FaultPlan::parse("throw@2,io@4");
    exp::ExperimentEngine engine(opts);
    return engine.run_batch_outcomes(
        jobs, exp::FailurePolicy::kCollect);
  };
  const auto serial = run_with(1);
  const auto pooled = run_with(4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(pooled.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].ok(), pooled[i].ok()) << "job " << i;
    EXPECT_EQ(serial[i].error, pooled[i].error) << "job " << i;
    EXPECT_EQ(serial[i].error_message, pooled[i].error_message) << "job " << i;
    EXPECT_EQ(serial[i].attempts, pooled[i].attempts) << "job " << i;
    if (serial[i].ok()) {
      EXPECT_EQ(digest(*serial[i].result), digest(*pooled[i].result))
          << "job " << i;
    }
  }
  // The injection sites are exactly the planned executed-point indices.
  EXPECT_EQ(serial[1].error, util::ErrorCode::kSim);
  EXPECT_EQ(serial[3].error, util::ErrorCode::kIo);
  EXPECT_TRUE(serial[0].ok());
  EXPECT_TRUE(serial[2].ok());
  EXPECT_TRUE(serial[4].ok());
  EXPECT_NE(serial[1].error_message.find("job1"), std::string::npos)
      << "failure must carry the job tag: " << serial[1].error_message;
}

TEST(FaultInjection, HangIsCancelledByWatchdogAsTimeout) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 2;
  // Generous budget: the genuine job must finish inside it even under a
  // 10-20x sanitizer slowdown; only the injected hang may trip it. The
  // test's duration is ~one budget (the hang waits for the watchdog).
  opts.job_timeout_ms = 1000;
  opts.fault_plan = exp::FaultPlan::parse("hang@1");
  exp::ExperimentEngine engine(opts);

  const auto jobs = five_jobs();
  const auto outcomes = engine.run_batch_outcomes(
      {jobs[0], jobs[1]}, exp::FailurePolicy::kCollect);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].error, util::ErrorCode::kTimeout);
  EXPECT_TRUE(outcomes[1].ok()) << outcomes[1].error_message;
  EXPECT_THROW((void)outcomes[0].value(), util::TimeoutError);
}

TEST(FaultInjection, RetryRecoversTransientFailureDeterministically) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.max_retries = 1;
  opts.retry_backoff_base_ms = 0;  // keep the test instant
  opts.fault_plan = exp::FaultPlan::parse("throw@1");
  exp::ExperimentEngine engine(opts);

  const auto jobs = five_jobs();
  const auto outcomes = engine.run_batch_outcomes(
      {jobs[0]}, exp::FailurePolicy::kCollect);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error_message;
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(engine.retries_performed(), 1u);
  EXPECT_EQ(engine.jobs_failed(), 0u);
  EXPECT_EQ(engine.simulations_executed(), 1u);
}

TEST(FaultInjection, RetryBackoffIsAPureFunction) {
  using Engine = exp::ExperimentEngine;
  const std::uint64_t seed = 0x5eedULL;
  const std::uint64_t fp = 0xabcdef0123ULL;
  EXPECT_EQ(Engine::retry_backoff_ms(seed, fp, 1, 0), 0u);
  const auto first = Engine::retry_backoff_ms(seed, fp, 1, 10);
  EXPECT_EQ(Engine::retry_backoff_ms(seed, fp, 1, 10), first)
      << "same (seed, fingerprint, attempt) must give the same delay";
  EXPECT_GE(first, 10u);
  EXPECT_LE(first, 20u);  // base + jitter in [0, base]
  // Exponential growth: attempt k waits at least base << (k-1).
  EXPECT_GE(Engine::retry_backoff_ms(seed, fp, 3, 10), 40u);
}

TEST(FaultInjection, ConfigErrorsAreNeverRetried) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.max_retries = 5;
  exp::ExperimentEngine engine(opts);

  exp::SimJob bad;  // no workloads for a 1-core machine
  bad.machine = sim::MachineConfig::single_core_default();
  bad.tag = "bad";
  const auto outcomes = engine.run_batch_outcomes(
      {bad}, exp::FailurePolicy::kCollect);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].error, util::ErrorCode::kConfig);
  EXPECT_EQ(engine.retries_performed(), 0u);
  EXPECT_THROW((void)outcomes[0].value(), util::ConfigError);
}

TEST(FaultInjection, FailFastCancelsUnstartedJobsButDropsNone) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;  // serial: deterministic cancellation boundary
  opts.fault_plan = exp::FaultPlan::parse("throw@1");
  exp::ExperimentEngine engine(opts);

  const auto jobs = five_jobs();
  const auto outcomes = engine.run_batch_outcomes(
      {jobs[0], jobs[1], jobs[2]},
      exp::FailurePolicy::kFailFast);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].error, util::ErrorCode::kSim);
  EXPECT_EQ(outcomes[1].error, util::ErrorCode::kCancelled);
  EXPECT_EQ(outcomes[2].error, util::ErrorCode::kCancelled);
  EXPECT_EQ(engine.simulations_executed(), 0u);
}

TEST(FaultInjection, RunBatchThrowsTypedErrorWithTagAndFingerprint) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.fault_plan = exp::FaultPlan::parse("io@1");
  exp::ExperimentEngine engine(opts);

  const auto jobs = five_jobs();
  try {
    (void)engine.run_batch({jobs[0]});
    FAIL() << "run_batch must rethrow the injected failure";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job0"), std::string::npos) << what;
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
  }
}

TEST(FaultInjection, RunGuardCancelsSystemCooperatively) {
  const auto machine = sim::MachineConfig::single_core_default();
  const auto workload =
      trace::spec_profile(trace::SpecBenchmark::kGcc, 10'000, 7);

  sim::RunGuard guard;
  guard.cancel.store(true);
  guard.check_interval = 1;

  std::vector<trace::TraceSourcePtr> traces;
  traces.push_back(std::make_unique<trace::SyntheticTrace>(workload));
  sim::System system(machine, std::move(traces));
  EXPECT_THROW((void)system.run(&guard), util::TimeoutError);

  trace::SyntheticTrace calib_trace(workload);
  EXPECT_THROW((void)sim::measure_cpi_exe(machine, calib_trace, &guard),
               util::TimeoutError);
}

}  // namespace
}  // namespace lpm
