// Tier-1 guarantees of the experiment engine: a pooled engine is
// bit-identical to a serial one, and the memo cache returns the very result
// object the original simulation produced.
#include "exp/experiment_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <vector>

#include "exp/result_sink.hpp"
#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/memo.hpp"

namespace lpm {
namespace {

void mix_camat(util::Fingerprint& f, const camat::CamatMetrics& m) {
  f.mix(m.accesses)
      .mix(m.hits)
      .mix(m.misses)
      .mix(m.pure_misses)
      .mix(m.active_cycles)
      .mix(m.hit_cycles)
      .mix(m.miss_cycles)
      .mix(m.pure_miss_cycles)
      .mix(m.hit_phase_access_cycles)
      .mix(m.miss_access_cycles)
      .mix(m.pure_access_cycles)
      .mix(m.hit_access_cycles)
      .mix(m.total_miss_latency);
}

void mix_cache_stats(util::Fingerprint& f, const mem::CacheStats& s) {
  f.mix(s.accesses)
      .mix(s.hits)
      .mix(s.misses)
      .mix(s.mshr_coalesced)
      .mix(s.rejected_ports)
      .mix(s.rejected_bank)
      .mix(s.rejected_backlog)
      .mix(s.mshr_full_waits)
      .mix(s.writebacks)
      .mix(s.writeback_hits)
      .mix(s.writeback_forwards)
      .mix(s.fills)
      .mix(s.evictions)
      .mix(s.deferred_fills)
      .mix(s.prefetches_issued)
      .mix(s.prefetch_hits)
      .mix(s.prefetch_coalesced)
      .mix(s.quota_waits);
  for (const auto v : s.core_accesses) f.mix(v);
  for (const auto v : s.core_misses) f.mix(v);
}

/// Digest over every counter a simulation produces; two results with equal
/// digests are bit-identical for all practical purposes.
std::uint64_t digest(const exp::SimJobResult& r) {
  util::Fingerprint f;
  f.mix(r.run.completed).mix(r.run.cycles);
  for (const auto& c : r.run.cores) {
    f.mix(c.instructions)
        .mix(c.mem_ops)
        .mix(c.loads)
        .mix(c.stores)
        .mix(c.cycles)
        .mix(c.commit_cycles)
        .mix(c.mem_active_cycles)
        .mix(c.overlap_cycles)
        .mix(c.data_stall_cycles)
        .mix(c.head_mem_stall_cycles)
        .mix(c.l1_rejections);
  }
  for (const auto& m : r.run.l1) mix_camat(f, m);
  mix_camat(f, r.run.l2);
  mix_camat(f, r.run.dram);
  for (const auto& s : r.run.l1_cache) mix_cache_stats(f, s);
  mix_cache_stats(f, r.run.l2_cache);
  f.mix(r.run.dram_stats.reads)
      .mix(r.run.dram_stats.writes)
      .mix(r.run.dram_stats.row_hits)
      .mix(r.run.dram_stats.row_misses)
      .mix(r.run.dram_stats.row_conflicts)
      .mix(r.run.dram_stats.rejected_full)
      .mix(r.run.dram_stats.busy_cycles)
      .mix(r.run.dram_stats.total_read_latency);
  for (const auto& c : r.calib) {
    f.mix(std::bit_cast<std::uint64_t>(c.cpi_exe))
        .mix(std::bit_cast<std::uint64_t>(c.fmem))
        .mix(c.instructions)
        .mix(c.cycles);
  }
  return f.value();
}

/// A mixed job set: three solo points (two calibrated) and one two-core
/// co-run, all short enough for tier-1.
std::vector<exp::SimJob> test_jobs() {
  using trace::SpecBenchmark;
  std::vector<exp::SimJob> jobs;

  auto solo = sim::MachineConfig::single_core_default();
  jobs.push_back(exp::SimJob::solo(
      solo, trace::spec_profile(SpecBenchmark::kBwaves, 20'000, 7), true, "a"));
  jobs.push_back(exp::SimJob::solo(
      solo, trace::spec_profile(SpecBenchmark::kGcc, 20'000, 7), true, "b"));
  auto big_l1 = solo;
  big_l1.l1.size_bytes *= 2;
  jobs.push_back(exp::SimJob::solo(
      big_l1, trace::spec_profile(SpecBenchmark::kGcc, 20'000, 7), false, "c"));

  exp::SimJob corun;
  corun.machine = solo;
  corun.machine.num_cores = 2;
  corun.machine.l1.num_cores = 2;
  corun.machine.l2.num_cores = 2;
  corun.workloads = {
      trace::spec_profile(SpecBenchmark::kMilc, 20'000, 7),
      trace::spec_profile(SpecBenchmark::kMcf, 20'000, 7),
  };
  corun.workloads[1].addr_base = 1ULL << 30;
  corun.tag = "corun";
  jobs.push_back(corun);
  return jobs;
}

/// Bytes the engine's result cache charges for storing `r`.
std::uint64_t entry_bytes(const exp::SimJobResult& r) {
  return exp::result_bytes(r) +
         util::Memo<std::uint64_t, exp::SimResultPtr>::kEntryOverhead;
}

std::uint64_t cache_evictions() {
  return obs::MetricsRegistry::global().snapshot().counter_or_zero(
      "exp.cache.evictions");
}

/// Runs `jobs` three times (as given, again, then reversed) on a serial
/// and a 4-worker engine with result-cache budget `budget`, and checks that
/// both return the same outcomes and keep the same cache. Returns the
/// serial engine's first-round results.
std::vector<exp::SimResultPtr> expect_pooled_matches_serial(
    const std::vector<exp::SimJob>& jobs, std::uint64_t budget) {
  using Options = exp::ExperimentEngine::Options;
  exp::ExperimentEngine serial(Options{.threads = 1, .cache_bytes = budget});
  exp::ExperimentEngine pooled(Options{.threads = 4, .cache_bytes = budget});
  EXPECT_EQ(pooled.threads(), 4u);

  const std::vector<exp::SimJob> reversed(jobs.rbegin(), jobs.rend());
  std::vector<exp::SimResultPtr> first_round;
  for (const auto* round : {&jobs, &jobs, &reversed}) {
    const auto serial_out =
        serial.run_batch_outcomes(*round, exp::FailurePolicy::kFailFast);
    const auto pooled_out =
        pooled.run_batch_outcomes(*round, exp::FailurePolicy::kFailFast);
    EXPECT_EQ(serial_out.size(), round->size());
    EXPECT_EQ(pooled_out.size(), round->size());
    for (std::size_t i = 0; i < round->size(); ++i) {
      const auto& s = serial_out[i];
      const auto& p = pooled_out[i];
      EXPECT_TRUE(s.ok() && p.ok()) << (*round)[i].tag;
      if (!s.ok() || !p.ok()) continue;
      EXPECT_EQ(s.result->fingerprint, p.result->fingerprint);
      EXPECT_EQ(s.from_cache, p.from_cache) << (*round)[i].tag;
      EXPECT_EQ(s.attempts, p.attempts) << (*round)[i].tag;
      EXPECT_EQ(digest(*s.result), digest(*p.result))
          << "job " << i << " (" << (*round)[i].tag
          << ") differs between threads=1 and threads=4, budget " << budget;
    }
    EXPECT_EQ(serial.cache_hits(), pooled.cache_hits()) << "budget " << budget;
    EXPECT_EQ(serial.cache_size(), pooled.cache_size()) << "budget " << budget;
    EXPECT_EQ(serial.cache_bytes(), pooled.cache_bytes());
    EXPECT_LE(serial.cache_bytes(), budget);
    if (first_round.empty()) {
      for (const auto& o : serial_out) first_round.push_back(o.result);
    }
  }
  EXPECT_EQ(serial.simulations_executed(), pooled.simulations_executed());
  return first_round;
}

TEST(ExperimentEngine, PooledEngineBitIdenticalToSerial) {
  const auto jobs = test_jobs();
  const auto results =
      expect_pooled_matches_serial(jobs, exp::kDefaultCacheBytes);
  ASSERT_EQ(results.size(), jobs.size());

  // Room for about three results: later rounds evict and re-simulate, and
  // the evictions must not depend on the pool.
  const std::uint64_t evictions_before = cache_evictions();
  (void)expect_pooled_matches_serial(jobs, 3 * entry_bytes(*results[0]));
  EXPECT_GT(cache_evictions(), evictions_before) << "the budget must evict";
}

TEST(ExperimentEngine, CacheHitReturnsSameResultObject) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  exp::ExperimentEngine engine(opts);

  const auto job = test_jobs()[0];
  const auto first = engine.run(job);
  EXPECT_EQ(engine.simulations_executed(), 1u);
  EXPECT_EQ(engine.cache_hits(), 0u);

  const auto second = engine.run(job);
  EXPECT_EQ(second.get(), first.get()) << "cache hit must share the object";
  EXPECT_EQ(engine.simulations_executed(), 1u);
  EXPECT_EQ(engine.cache_hits(), 1u);

  // The tag is not part of the cache key.
  auto retagged = job;
  retagged.tag = "different tag";
  EXPECT_EQ(engine.run(retagged).get(), first.get());
  EXPECT_EQ(engine.cache_hits(), 2u);

  // A result the cache never stored (budget 0) is simulated again and
  // comes back as a new object.
  using Options = exp::ExperimentEngine::Options;
  exp::ExperimentEngine uncached(Options{.threads = 1, .cache_bytes = 0});
  const auto once = uncached.run(job);
  EXPECT_NE(uncached.run(job).get(), once.get());
  EXPECT_EQ(uncached.simulations_executed(), 2u);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_size(), 0u);

  // So is one the cache has evicted: a budget with room for one result
  // drops it once another is stored.
  const std::uint64_t one = entry_bytes(*first);
  exp::ExperimentEngine tiny(
      Options{.threads = 1, .cache_bytes = one + one / 2});
  const std::uint64_t evictions_before = cache_evictions();
  const auto kept = tiny.run(job);
  (void)tiny.run(test_jobs()[1]);
  EXPECT_EQ(tiny.cache_size(), 1u);
  EXPECT_EQ(cache_evictions(), evictions_before + 1);
  EXPECT_NE(tiny.run(job).get(), kept.get());
  EXPECT_EQ(tiny.simulations_executed(), 3u);
  EXPECT_EQ(tiny.cache_hits(), 0u);
}

TEST(ExperimentEngine, BackendIsPartOfTheCacheKey) {
  // Regression guard for the multi-fidelity seam: an analytic evaluation of
  // a point must never be served a cycle result of the same point (or vice
  // versa). A fake executor stands in for the analytic model so this stays
  // a pure engine test.
  exp::ExperimentEngine::register_backend_executor(
      "fake-analytic", [](const exp::SimJob& job, const sim::RunGuard*) {
        exp::SimJobResult out;
        out.backend = job.backend;
        return out;
      });

  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  exp::ExperimentEngine engine(opts);

  const auto cycle_job = test_jobs()[0];
  auto tagged = cycle_job;
  tagged.backend = "fake-analytic";
  ASSERT_NE(cycle_job.fingerprint(), tagged.fingerprint())
      << "the backend must feed the job fingerprint";

  const auto cycle_result = engine.run(cycle_job);
  const auto tagged_result = engine.run(tagged);
  EXPECT_NE(cycle_result.get(), tagged_result.get());
  EXPECT_EQ(engine.simulations_executed(), 2u);
  EXPECT_EQ(engine.cache_hits(), 0u);
  EXPECT_EQ(cycle_result->backend, exp::kCycleBackend);
  EXPECT_EQ(tagged_result->backend, "fake-analytic");

  // Each fidelity hits its own entry on re-submission.
  EXPECT_EQ(engine.run(cycle_job).get(), cycle_result.get());
  EXPECT_EQ(engine.run(tagged).get(), tagged_result.get());
  EXPECT_EQ(engine.cache_hits(), 2u);
}

TEST(ExperimentEngine, InBatchDuplicatesSimulateOnce) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 2;
  exp::ExperimentEngine engine(opts);

  const auto job = test_jobs()[0];
  const std::vector<exp::SimJob> batch = {job, job, job};
  const auto results = engine.run_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].get(), results[1].get());
  EXPECT_EQ(results[0].get(), results[2].get());
  EXPECT_EQ(engine.simulations_executed(), 1u);
  EXPECT_EQ(engine.cache_hits(), 2u);
}

TEST(ExperimentEngine, SinkReceivesOneRecordPerSubmission) {
  std::ostringstream csv;
  exp::ResultSink sink(csv, exp::ResultSink::Format::kCsv);

  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.sink = &sink;
  exp::ExperimentEngine engine(opts);

  const auto job = test_jobs()[0];
  (void)engine.run(job);
  (void)engine.run(job);  // cache hit still produces a record
  EXPECT_EQ(sink.records_written(), 2u);

  const std::string text = csv.str();
  EXPECT_NE(text.find("tag,fingerprint,backend,from_cache"), std::string::npos)
      << "CSV header missing:\n"
      << text;
  // RFC 4180: a plain tag needs no quotes.
  EXPECT_NE(text.find("\na,"), std::string::npos);
}

TEST(ExperimentEngine, RejectsMalformedJobs) {
  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  exp::ExperimentEngine engine(opts);

  exp::SimJob job;  // no workloads for a 1-core machine
  job.machine = sim::MachineConfig::single_core_default();
  EXPECT_THROW((void)engine.run(job), util::LpmError);
}

}  // namespace
}  // namespace lpm
