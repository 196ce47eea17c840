// Robustness regressions for the experiment engine and sweep journal:
//  * retry_backoff_ms never overflows its shift or wraps, for any attempt
//    count or base (the bug: attempt 65+ shifted past 64 bits — UB — and
//    large bases wrapped to tiny delays);
//  * a sweep journal truncated at *every* byte offset (a crash mid-append)
//    resumes without double-executing or dropping a point;
//  * watchdog cancellation racing natural completion books each job
//    exactly once: executed + failed always equals the number of distinct
//    jobs, under every interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/temp_path.hpp"
#include "exp/experiment_engine.hpp"
#include "exp/fault_plan.hpp"
#include "exp/journal.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = test::temp_path(name);
  std::filesystem::remove(path);
  return path;
}

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

// ------------------------------------------------- torn journal truncation

TEST(SweepJournalTruncation, EveryPrefixResumesExactly) {
  // Build a journal of 5 completed points, then replay a crash at every
  // byte offset of the file. Whatever the cut, reopening must recover
  // exactly the points whose full line survived: no double execution
  // (recovered points are skipped) and no dropped point (complete lines
  // before the tear all load).
  const std::string master = temp_path("rob_journal_master.log");
  std::vector<std::uint64_t> fps;
  {
    auto journal = exp::SweepJournal::open(master);
    for (std::uint64_t i = 1; i <= 5; ++i) {
      const std::uint64_t fp = 0x1000 + i * 7;
      journal->mark_done(fp, "point" + std::to_string(i), 1.5 * i);
      fps.push_back(fp);
    }
  }
  std::string bytes;
  {
    std::ifstream in(master, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());

  const std::string cut = temp_path("rob_journal_cut.log");
  for (std::size_t offset = 0; offset <= bytes.size(); ++offset) {
    {
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(offset));
    }
    // Complete lines in the prefix = newlines seen.
    const std::size_t complete = static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.begin() + offset, '\n'));
    auto journal = exp::SweepJournal::open(cut);
    ASSERT_EQ(journal->size(), complete) << "offset=" << offset;
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_EQ(journal->completed(fps[i]), i < complete)
          << "offset=" << offset << " point=" << i;
    }
    // The reopened journal stays appendable mid-history: marking the torn
    // point done again must stick.
    if (complete < fps.size()) {
      journal->mark_done(fps[complete], "healed", 0.0);
      EXPECT_TRUE(journal->completed(fps[complete]));
    }
  }
}

TEST(SweepJournalTruncation, EngineResumeNeverDoubleExecutesOrDrops) {
  // End-to-end: run 4 points under a journal, truncate the journal at a
  // handful of representative offsets (clean end, mid-line, line
  // boundary), and rerun. executed + skipped must always equal the batch,
  // and re-executed points are exactly the non-recovered ones.
  const auto jobs = distinct_jobs(4, 1'000);
  const std::string master = temp_path("rob_resume_master.log");
  {
    auto journal = exp::SweepJournal::open(master);
    exp::ExperimentEngine::Options opts;
    opts.threads = 1;
    opts.cache_enabled = false;
    opts.journal = journal.get();
    exp::ExperimentEngine engine(opts);
    const auto outcomes = engine.run_batch_outcomes(
        jobs, exp::BatchOptions{exp::FailurePolicy::kCollect, true});
    for (const auto& o : outcomes) EXPECT_TRUE(o.ok());
    EXPECT_EQ(engine.simulations_executed(), jobs.size());
  }
  std::string bytes;
  {
    std::ifstream in(master, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t first_line = bytes.find('\n') + 1;
  const std::vector<std::size_t> offsets = {
      0, first_line - 1, first_line, first_line + 3, bytes.size() - 1,
      bytes.size()};

  const std::string cut = temp_path("rob_resume_cut.log");
  for (const std::size_t offset : offsets) {
    {
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(offset));
    }
    const std::size_t recovered = static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.begin() + offset, '\n'));
    auto journal = exp::SweepJournal::open(cut);
    exp::ExperimentEngine::Options opts;
    opts.threads = 1;
    opts.cache_enabled = false;
    opts.journal = journal.get();
    exp::ExperimentEngine engine(opts);
    const auto outcomes = engine.run_batch_outcomes(
        jobs, exp::BatchOptions{exp::FailurePolicy::kCollect, true});
    ASSERT_EQ(outcomes.size(), jobs.size()) << "offset=" << offset;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      // No outcome may be lost: each point is either skipped (already
      // journaled) or freshly executed, never neither, never both.
      EXPECT_EQ(outcomes[i].skipped, i < recovered)
          << "offset=" << offset << " job=" << i;
      EXPECT_EQ(outcomes[i].ok(), !outcomes[i].skipped);
      skipped += outcomes[i].skipped ? 1 : 0;
    }
    EXPECT_EQ(engine.simulations_executed() + skipped, jobs.size())
        << "offset=" << offset;
    EXPECT_EQ(engine.journal_skips(), recovered);
    // After the resume, the journal is whole again.
    EXPECT_EQ(journal->size(), jobs.size());
  }
}

// ------------------------------------- watchdog cancellation vs completion

TEST(WatchdogRace, HungJobIsCancelledAndSingleCounted) {
  // One injected hang among real work, retries off: the hung job must come
  // back kTimeout exactly once, everything else succeeds, and the books
  // balance: executed + failed == distinct jobs.
  const auto jobs = distinct_jobs(5);
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.cache_enabled = false;
  opts.max_retries = 0;
  opts.job_timeout_ms = 50;
  opts.policy = exp::FailurePolicy::kCollect;
  opts.fault_plan = exp::FaultPlan::parse("hang@3");
  exp::ExperimentEngine engine(opts);

  const auto outcomes = engine.run_batch_outcomes(jobs);
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
    opts.cache_enabled = false;
    opts.max_retries = 0;
    opts.job_timeout_ms = 1 + round;  // ~the natural runtime of one job
    opts.policy = exp::FailurePolicy::kCollect;
    exp::ExperimentEngine engine(opts);

    const auto outcomes = engine.run_batch_outcomes(jobs);
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
