// The engine's pooled core behind the Options builder: builder
// validation, bit-exact determinism across batch sizes and pool sizes,
// concurrent submitters sharing one queue, task-count accounting, and the
// submission-order contract of the ResultSink under out-of-order
// completion.
//
// Everything here must pass on a single-core runner: a pool larger than
// the CPU count only oversubscribes, it never changes a result.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "exp/result_sink.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/flat_json.hpp"

namespace lpm {
namespace {

/// Distinct near-zero-cost jobs through a registered null backend; the
/// workload seed makes every point unique so nothing dedups or caches.
std::vector<exp::SimJob> null_jobs(unsigned count, const char* backend) {
  std::vector<exp::SimJob> jobs;
  jobs.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    trace::WorkloadProfile w =
        trace::spec_profile(trace::SpecBenchmark::kBwaves, 2000, 17);
    w.seed = 1000 + i;
    exp::SimJob job =
        exp::SimJob::solo(sim::MachineConfig::single_core_default(),
                          std::move(w), /*calibrate=*/false,
                          "conc-" + std::to_string(i));
    job.backend = backend;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void register_null_backend() {
  exp::ExperimentEngine::register_backend_executor(
      "conc-null", [](const exp::SimJob& job, const sim::RunGuard*) {
        exp::SimJobResult out;
        out.backend = job.backend;
        out.run.completed = true;
        out.run.cycles = job.workloads.front().seed;  // job-identifying
        return out;
      });
}

TEST(OptionsBuilder, ValidatesThreadCount) {
  using Options = exp::ExperimentEngine::Options;
  EXPECT_THROW((void)Options::builder().threads(257).build(),
               util::ConfigError);
  EXPECT_NO_THROW((void)Options::builder().threads(256).build());
}

TEST(OptionsBuilder, CarriesEveryFieldThrough) {
  const auto opts = exp::ExperimentEngine::Options::builder()
                        .threads(2)
                        .cache_bytes(0)
                        .max_retries(3)
                        .retry_backoff_base_ms(7)
                        .backoff_seed(99)
                        .job_timeout_ms(1234)
                        .policy(exp::FailurePolicy::kCollect)
                        .build();
  EXPECT_EQ(opts.threads, 2u);
  EXPECT_EQ(opts.cache_bytes, 0u);
  EXPECT_EQ(opts.max_retries, 3u);
  EXPECT_EQ(opts.retry_backoff_base_ms, 7u);
  EXPECT_EQ(opts.backoff_seed, 99u);
  EXPECT_EQ(opts.job_timeout_ms, 1234u);
  EXPECT_EQ(opts.policy, exp::FailurePolicy::kCollect);
}

TEST(EngineConcurrency, DeterministicAcrossQueueCapacities) {
  // The ordered-reassembly contract must hold for any handoff granularity:
  // a one-group batch (notify_one), batches smaller than, comparable to and
  // far larger than the pool, over pools of 2 and 8 workers.
  register_null_backend();
  exp::ExperimentEngine serial(exp::ExperimentEngine::Options::builder()
                                   .threads(1)
                                   .cache_bytes(0)
                                   .build());
  for (const unsigned pool : {2u, 8u}) {
    exp::ExperimentEngine pooled(exp::ExperimentEngine::Options::builder()
                                     .threads(pool)
                                     .cache_bytes(0)
                                     .build());
    std::uint64_t submitted = 0;
    for (const unsigned batch : {1u, 7u, 64u, 4096u}) {
      const auto jobs = null_jobs(batch, "conc-null");
      const auto expected = serial.run_batch(jobs);
      const auto results = pooled.run_batch(jobs);
      ASSERT_EQ(results.size(), expected.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i]->run.cycles, expected[i]->run.cycles)
            << "pool " << pool << ", batch " << batch << ", job " << i;
        EXPECT_EQ(results[i]->fingerprint, expected[i]->fingerprint);
      }
      submitted += batch;
      // Every executed group landed on exactly one worker shard.
      const auto counts = pooled.worker_task_counts();
      ASSERT_EQ(counts.size(), pool);
      EXPECT_EQ(
          std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
          submitted)
          << "pool " << pool << ", batch " << batch;
    }
  }
}

TEST(EngineConcurrency, ConcurrentSubmittersShareOnePool) {
  // Several threads each submit their own batch into one engine, so their
  // groups interleave in the one queue. Each submitter must get its own
  // slice back in its own order.
  register_null_backend();
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options::builder()
                                   .threads(4)
                                   .cache_bytes(0)
                                   .build());
  constexpr unsigned kSubmitters = 4;
  constexpr unsigned kJobsEach = 48;
  std::vector<std::vector<exp::SimJob>> slices(kSubmitters);
  for (unsigned s = 0; s < kSubmitters; ++s) {
    auto jobs = null_jobs(kJobsEach, "conc-null");
    for (auto& j : jobs) j.workloads.front().seed += 10000 * (s + 1);
    slices[s] = std::move(jobs);
  }
  std::vector<int> failures(kSubmitters, 0);
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      const auto results = engine.run_batch(slices[s]);
      for (unsigned i = 0; i < kJobsEach; ++i) {
        if (results[i]->run.cycles != slices[s][i].workloads.front().seed) {
          ++failures[s];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(failures[s], 0) << "submitter " << s << " got foreign results";
  }
  EXPECT_EQ(engine.simulations_executed(), kSubmitters * kJobsEach);
}

TEST(EngineConcurrency, SinkRecordsInSubmissionOrderDespiteOutOfOrderRuns) {
  // Workers finish out of order (later submissions sleep less), but the
  // sink is written from the submitting thread during ordered merge — its
  // rows must follow submission order exactly, so a results file is the
  // same at any pool size.
  exp::ExperimentEngine::register_backend_executor(
      "conc-sleeper", [](const exp::SimJob& job, const sim::RunGuard*) {
        const auto seed = job.workloads.front().seed;
        // seeds 1000..1000+n: earlier submissions sleep longest.
        const auto ms = seed < 1016 ? (1016 - seed) : 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        exp::SimJobResult out;
        out.backend = job.backend;
        out.run.completed = true;
        out.run.cycles = seed;
        return out;
      });

  std::ostringstream rows;
  exp::ResultSink sink(rows, exp::ResultSink::Format::kJsonLines);
  const auto jobs = null_jobs(16, "conc-sleeper");
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options::builder()
                                   .threads(4)
                                   .cache_bytes(0)
                                   .sink(&sink)
                                   .build());
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  std::istringstream lines(rows.str());
  std::vector<std::string> fingerprints;
  std::string line;
  while (std::getline(lines, line)) {
    fingerprints.push_back(
        util::FlatJson::parse(line).get_string("fingerprint").value_or(""));
  }
  ASSERT_EQ(fingerprints.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(fingerprints[i], util::fingerprint_hex(jobs[i].fingerprint()))
        << "sink row " << i << " is not the " << i
        << "th submitted job: rows must follow submission order";
  }
}

TEST(EngineConcurrency, QueueMetricsAndTaskCountsStayCoherent) {
  register_null_backend();
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options::builder()
                                   .threads(2)
                                   .cache_bytes(0)
                                   .build());
  const auto jobs = null_jobs(128, "conc-null");
  (void)engine.run_batch(jobs);
  // Task counts sum to the batch size: every group ran on exactly one
  // worker, and the queue neither dropped nor duplicated one.
  const auto counts = engine.worker_task_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
            jobs.size());
  EXPECT_EQ(engine.simulations_executed(), jobs.size());
  // A serial engine has no pool and therefore no shards.
  exp::ExperimentEngine serial(
      exp::ExperimentEngine::Options::builder().threads(1).build());
  EXPECT_TRUE(serial.worker_task_counts().empty());
}

}  // namespace
}  // namespace lpm
