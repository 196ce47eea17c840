// The metric-name catalogue contract: every name documented in
// OBSERVABILITY.md is emitted into the global registry by real
// instrumentation — an engine batch (exp.* and sim.*, including a
// three-level machine for the l2p names) and an LPM walk (lpm.*). A name
// in the doc that no code emits fails here, so the catalogue cannot rot.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "core/design_space.hpp"
#include "core/lpm_algorithm.hpp"
#include "exp/experiment_engine.hpp"
#include "model/analytic.hpp"
#include "obs/metrics.hpp"
#include "srv/client.hpp"
#include "srv/server.hpp"
#include "trace/spec_like.hpp"

namespace lpm {
namespace {

/// Minimal tunable that converges on the second iteration, enough to drive
/// every lpm.* metric.
class TwoStepTunable final : public core::LpmTunable {
 public:
  core::LpmObservation measure() override {
    core::LpmObservation obs;
    obs.lpmr.lpmr1 = lpmr1_;
    obs.lpmr.lpmr2 = 1.0;
    obs.lpmr.lpmr3 = 1.0;
    obs.t1 = 2.0;
    obs.t2 = 2.0;
    obs.config_label = "catalogue";
    return obs;
  }
  bool optimize_l1() override {
    lpmr1_ = 1.5;
    return true;
  }
  bool optimize_l2() override { return false; }
  bool reduce_overprovision() override { return false; }

 private:
  double lpmr1_ = 3.0;
};

TEST(MetricCatalogue, DocumentedNamesAreEmitted) {
  // One two-level and one three-level point through the engine: together
  // they touch every sim.cache.* / sim.camat.* level suffix. calibrate=true
  // exercises sim.calibrations; the repeat and the analytic points below
  // share that calibration (sim.calibration_cache_hits).
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options::builder().threads(2).build());
  const auto workload =
      trace::spec_profile(trace::SpecBenchmark::kGcc, 20000, 11);

  const auto two_level = sim::MachineConfig::single_core_default();
  const auto three_level = sim::MachineConfig::three_level_default();

  std::vector<exp::SimJob> jobs;
  jobs.push_back(exp::SimJob::solo(two_level, workload, /*calibrate=*/true));
  jobs.push_back(exp::SimJob::solo(three_level, workload, /*calibrate=*/false));
  // Repeat of the first point: exercises the memo cache (exp.jobs.cache_hits).
  jobs.push_back(exp::SimJob::solo(two_level, workload, /*calibrate=*/true));
  // Analytic points (model.backend.*): two distinct rdh configs of one
  // workload — the second is served by the cached reuse profile — plus one
  // fa config for its evals counter.
  model::register_analytic_executors();
  {
    exp::SimJob rdh =
        exp::SimJob::solo(two_level, workload, /*calibrate=*/false, "rdh-a");
    rdh.backend = model::kRdhBackend;
    jobs.push_back(rdh);
    sim::MachineConfig bigger = two_level;
    bigger.l1.size_bytes *= 2;
    exp::SimJob rdh2 =
        exp::SimJob::solo(bigger, workload, /*calibrate=*/false, "rdh-b");
    rdh2.backend = model::kRdhBackend;
    jobs.push_back(rdh2);
    exp::SimJob fa =
        exp::SimJob::solo(two_level, workload, /*calibrate=*/false, "fa-a");
    fa.backend = model::kFaBackend;
    jobs.push_back(fa);
  }
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), 6u);

  // One screened sweep over a single candidate (lpm.screened_sweeps).
  core::SweepOptions sweep_opts;
  sweep_opts.engine = &engine;
  sweep_opts.confirm_top_k = 1;
  const auto sweep = core::screen_then_confirm_sweep(
      two_level, workload, {core::ArchKnobs{}}, sweep_opts);
  ASSERT_EQ(sweep.confirmed.size(), 1u);

  TwoStepTunable tunable;
  core::LpmAlgorithmConfig cfg;
  const core::LpmAlgorithm algorithm(cfg);
  const auto outcome = algorithm.run(tunable);
  ASSERT_TRUE(outcome.converged);

  // A screen + confirm pair of the same toy tunable (lpm.two_stage_walks).
  TwoStepTunable screen_tunable, confirm_tunable;
  const auto two_stage = algorithm.run_two_stage(screen_tunable, confirm_tunable);
  ASSERT_TRUE(two_stage.confirm.converged);

  const auto snap = obs::MetricsRegistry::global().snapshot();

  // Counters: keep in lockstep with the OBSERVABILITY.md catalogue.
  const std::vector<std::string> counters = {
      "exp.jobs.submitted", "exp.jobs.executed", "exp.jobs.cache_hits",
      "exp.jobs.failed", "exp.jobs.retries", "exp.jobs.timeouts",
      "exp.jobs.faults_injected", "exp.jobs.journal_skips",
      "sim.runs", "sim.cycles", "sim.instructions", "sim.calibrations",
      "sim.calibration_cache_hits", "trace.readahead.waits",
      "sim.cache.accesses.l1", "sim.cache.hits.l1", "sim.cache.misses.l1",
      "sim.cache.accesses.l2", "sim.cache.hits.l2", "sim.cache.misses.l2",
      "sim.cache.accesses.l2p", "sim.cache.hits.l2p", "sim.cache.misses.l2p",
      "sim.camat.pure_misses.l1", "sim.camat.pure_misses.l2",
      "sim.camat.pure_misses.l2p", "sim.camat.pure_misses.dram",
      "lpm.walks", "lpm.iterations", "lpm.converged", "lpm.exhausted",
      "lpm.two_stage_walks", "lpm.screened_sweeps",
      "model.backend.evals.cycle", "model.backend.evals.rdh",
      "model.backend.evals.fa", "model.backend.profile_builds",
      "model.backend.profile_cache_hits",
  };
  for (const auto& name : counters) {
    EXPECT_TRUE(snap.counters.contains(name)) << "missing counter: " << name;
  }

  const std::vector<std::string> histograms = {
      "exp.job.queue_wait_ms", "exp.job.run_ms", "exp.batch.size",
      "exp.queue.depth", "exp.worker.tasks",
      "sim.camat.hit_concurrency.l1", "sim.camat.hit_concurrency.l2",
      "sim.camat.hit_concurrency.l2p",
      "sim.camat.pure_miss_concurrency.l1",
      "sim.camat.pure_miss_concurrency.l2",
      "lpm.lpmr1", "lpm.lpmr2",
  };
  for (const auto& name : histograms) {
    EXPECT_TRUE(snap.histograms.contains(name))
        << "missing histogram: " << name;
  }

  // Semantic spot checks: the engine really executed and the cache really
  // hit; the sim counters really aggregated a run.
  EXPECT_GE(snap.counter_or_zero("exp.jobs.submitted"), 3u);
  EXPECT_GE(snap.counter_or_zero("exp.jobs.executed"), 2u);
  EXPECT_GE(snap.counter_or_zero("exp.jobs.cache_hits"), 1u);
  EXPECT_GT(snap.counter_or_zero("sim.cycles"), 0u);
  EXPECT_GT(snap.counter_or_zero("sim.instructions"), 0u);
  EXPECT_GT(snap.counter_or_zero("sim.cache.accesses.l1"), 0u);
  EXPECT_GT(snap.counter_or_zero("sim.camat.pure_misses.l1"), 0u);
  EXPECT_GE(snap.counter_or_zero("lpm.walks"), 1u);
  EXPECT_GE(snap.counter_or_zero("lpm.iterations"), 2u);
  EXPECT_GE(snap.counter_or_zero("lpm.converged"), 1u);
  EXPECT_GE(snap.counter_or_zero("lpm.two_stage_walks"), 1u);
  EXPECT_GE(snap.counter_or_zero("lpm.screened_sweeps"), 1u);
  EXPECT_GE(snap.counter_or_zero("model.backend.evals.rdh"), 2u);
  EXPECT_GE(snap.counter_or_zero("model.backend.evals.fa"), 1u);
  EXPECT_GE(snap.counter_or_zero("model.backend.profile_builds"), 1u);
  EXPECT_GE(snap.counter_or_zero("model.backend.profile_cache_hits"), 1u);
  EXPECT_GE(snap.counter_or_zero("sim.calibrations"), 1u);
  EXPECT_GE(snap.counter_or_zero("sim.calibration_cache_hits"), 1u);
  EXPECT_GT(snap.histograms.at("exp.job.run_ms").count, 0u);
  EXPECT_GT(snap.histograms.at("lpm.lpmr1").count, 0u);
}

TEST(MetricCatalogue, ServerNamesAreEmitted) {
  // Constructing the lpmd server registers every srv.* metric (counters,
  // gauges, histograms are member handles); one job through it makes the
  // core counters move. Keep the name lists in lockstep with the srv.*
  // section of OBSERVABILITY.md.
  srv::Server::Options opts;
  opts.endpoint = test::temp_path("lpmd.sock");
  opts.journal_path = test::temp_path("lpmd.journal");
  std::remove(opts.journal_path.c_str());
  srv::Server server(std::move(opts));
  server.start();
  srv::Client client(server.options().endpoint, "catalogue");
  client.connect();
  srv::JobSpec spec;
  spec.kind = "simulate";
  spec.workload = "403.gcc";
  spec.length = 2'000;
  ASSERT_TRUE(client.submit("m1", spec));
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    const auto frame = client.poll(100);
    done = frame && frame->get_string("op").value_or("") == "done";
  }
  ASSERT_TRUE(done);
  server.stop();

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const std::vector<std::string> counters = {
      "srv.connections.accepted", "srv.connections.reaped",
      "srv.frames.received", "srv.frames.sent",
      "srv.jobs.accepted", "srv.jobs.degraded", "srv.jobs.retry_after",
      "srv.jobs.shed", "srv.jobs.completed", "srv.jobs.failed",
      "srv.jobs.deadline_expired", "srv.jobs.recovered",
      "srv.cache.hits", "srv.cache.misses", "srv.cache.evictions",
  };
  for (const auto& name : counters) {
    EXPECT_TRUE(snap.counters.contains(name)) << "missing counter: " << name;
  }
  for (const auto& name : {"srv.queue.depth", "srv.cache.bytes"}) {
    EXPECT_TRUE(snap.gauges.contains(name)) << "missing gauge: " << name;
  }
  for (const auto& name : {"srv.job.queue_wait_ms", "srv.job.service_ms"}) {
    EXPECT_TRUE(snap.histograms.contains(name))
        << "missing histogram: " << name;
  }
  EXPECT_GE(snap.counter_or_zero("srv.connections.accepted"), 1u);
  EXPECT_GE(snap.counter_or_zero("srv.jobs.accepted"), 1u);
  EXPECT_GE(snap.counter_or_zero("srv.jobs.completed"), 1u);
  EXPECT_GE(snap.counter_or_zero("srv.frames.sent"), 2u);  // hello_ok + ack + done
  EXPECT_GT(snap.histograms.at("srv.job.service_ms").count, 0u);
}

TEST(MetricCatalogue, TcpNamesAreEmitted) {
  // A server on a TCP listener registers the srv.tcp.* names; one job over
  // TCP makes the accept counter move. Keep in lockstep with the srv.tcp.*
  // section of OBSERVABILITY.md.
  srv::Server::Options opts;
  opts.endpoint = "tcp:127.0.0.1:0";
  opts.workers = 1;
  srv::Server server(opts);
  server.start();

  srv::Client client(server.bound_endpoint(), "catalogue-tcp");
  client.connect(10'000);
  srv::JobSpec spec;
  spec.backend = "rdh";  // analytic: instant
  spec.length = 1'000;
  ASSERT_TRUE(client.submit("m1", spec));
  bool done = false;
  for (int i = 0; i < 300 && !done; ++i) {
    const auto frame = client.poll(100);
    done = frame && frame->get_string("op").value_or("") == "done";
  }
  ASSERT_TRUE(done);
  server.stop();

  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_TRUE(snap.counters.contains("srv.tcp.connections.accepted"));
  EXPECT_TRUE(snap.gauges.contains("srv.tcp.port"));
  EXPECT_GE(snap.counter_or_zero("srv.tcp.connections.accepted"), 1u);
  EXPECT_GT(snap.gauges.at("srv.tcp.port"), 0.0);
}

}  // namespace
}  // namespace lpm
