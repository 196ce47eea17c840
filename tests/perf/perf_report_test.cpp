// BENCH_simulator.json schema and the perf-regression gate. The suite runs
// with a tiny workload — wall-clock values are machine noise, but the
// schema (required keys, non-negative values) and the gate arithmetic are
// exact.
#include <gtest/gtest.h>

#include "perf_lib.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::perf {
namespace {

PerfOptions tiny_options() {
  PerfOptions opts;
  opts.length = 2000;
  opts.sim_configs = 1;
  opts.membound_length = 2000;
  opts.corun_length = 500;
  opts.engine_jobs = 2;
  opts.engine_submitters = 1;
  opts.engine_threads = 1;
  opts.analytic_configs = 4;
  opts.trace_ops = 5000;
  opts.synth_length = 1000;
  return opts;
}

TEST(PerfReport, EmitsRequiredSchema) {
  const PerfReport report = run_perf_suite(tiny_options());
  const std::string json = to_json(report);
  const util::FlatJson parsed = util::FlatJson::parse(json);

  EXPECT_EQ(parsed.get_string("bench"), "lpm_convergence");
  for (const char* key :
       {"cycles", "instructions", "jobs", "analytic_configs",
        "wall_seconds_simulate", "wall_seconds_engine", "wall_seconds_analytic",
        "sim_cycles_per_sec", "instructions_per_sec", "membound_cycles",
        "membound_instructions", "wall_seconds_membound",
        "sim_membound_cycles_per_sec", "corun_cycles", "wall_seconds_corun",
        "sim_corun_cycles_per_sec", "engine_jobs_per_sec",
        "analytic_configs_per_sec", "trace_ops", "wall_seconds_trace_cold",
        "wall_seconds_trace_warm", "trace_cold_ops_per_sec",
        "trace_warm_ops_per_sec", "synth_ops", "wall_seconds_synth",
        "trace_synth_ops_per_sec"}) {
    const auto value = parsed.get_number(key);
    ASSERT_TRUE(value.has_value()) << "missing key " << key;
    EXPECT_GE(*value, 0.0) << key;
  }
  // The measured work is real: a run simulates cycles and commits
  // instructions, and the engine executed every job.
  EXPECT_GT(report.cycles, 0u);
  EXPECT_GT(report.instructions, 0u);
  EXPECT_EQ(report.jobs, 2u);
  EXPECT_EQ(report.analytic_configs, 4u * 16u);  // 4 configs x 16 profiles
  EXPECT_GT(report.sim_cycles_per_sec, 0.0);
  EXPECT_GT(report.instructions_per_sec, 0.0);
  EXPECT_GT(report.engine_jobs_per_sec, 0.0);
  EXPECT_GT(report.analytic_configs_per_sec, 0.0);
  // The memory-bound phase ran four confirms, each stalled on data: fewer
  // committed instructions than simulated cycles.
  EXPECT_EQ(report.membound_instructions, 4u * 2000u);
  EXPECT_GT(report.membound_cycles, report.membound_instructions);
  EXPECT_GT(report.sim_membound_cycles_per_sec, 0.0);
  // The co-run phase drained all sixteen cores.
  EXPECT_GT(report.corun_cycles, 0u);
  EXPECT_GT(report.sim_corun_cycles_per_sec, 0.0);
  // The ingestion phase drained the recorded trace, both passes.
  EXPECT_EQ(report.trace_ops, 5000u);
  EXPECT_GT(report.trace_cold_ops_per_sec, 0.0);
  EXPECT_GT(report.trace_warm_ops_per_sec, 0.0);
  // The synthesis phase generated every op of the 16 profiles.
  EXPECT_EQ(report.synth_ops, 16u * 1000u);
  EXPECT_GT(report.trace_synth_ops_per_sec, 0.0);
}

TEST(PerfReport, JsonRoundTrips) {
  PerfReport r;
  r.bench = "lpm_convergence";
  r.cycles = 123;
  r.instructions = 456;
  r.jobs = 7;
  r.wall_seconds_simulate = 1.5;
  r.wall_seconds_engine = 2.5;
  r.sim_cycles_per_sec = 82.0;
  r.instructions_per_sec = 304.0;
  r.engine_jobs_per_sec = 2.8;
  r.membound_cycles = 999;
  r.membound_instructions = 333;
  r.wall_seconds_membound = 0.75;
  r.sim_membound_cycles_per_sec = 1332.0;
  r.corun_cycles = 777;
  r.wall_seconds_corun = 0.5;
  r.sim_corun_cycles_per_sec = 1554.0;
  r.analytic_configs = 64;
  r.wall_seconds_analytic = 0.125;
  r.analytic_configs_per_sec = 512.0;
  r.trace_ops = 4096;
  r.wall_seconds_trace_cold = 0.5;
  r.wall_seconds_trace_warm = 0.25;
  r.trace_cold_ops_per_sec = 8192.0;
  r.trace_warm_ops_per_sec = 16384.0;
  r.synth_ops = 1600;
  r.wall_seconds_synth = 0.125;
  r.trace_synth_ops_per_sec = 12800.0;

  const PerfReport back = parse_report(to_json(r));
  EXPECT_EQ(back.bench, r.bench);
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.instructions, r.instructions);
  EXPECT_EQ(back.jobs, r.jobs);
  EXPECT_EQ(back.analytic_configs, r.analytic_configs);
  EXPECT_DOUBLE_EQ(back.sim_cycles_per_sec, r.sim_cycles_per_sec);
  EXPECT_DOUBLE_EQ(back.instructions_per_sec, r.instructions_per_sec);
  EXPECT_DOUBLE_EQ(back.engine_jobs_per_sec, r.engine_jobs_per_sec);
  EXPECT_EQ(back.membound_cycles, r.membound_cycles);
  EXPECT_EQ(back.membound_instructions, r.membound_instructions);
  EXPECT_DOUBLE_EQ(back.wall_seconds_membound, r.wall_seconds_membound);
  EXPECT_DOUBLE_EQ(back.sim_membound_cycles_per_sec,
                   r.sim_membound_cycles_per_sec);
  EXPECT_EQ(back.corun_cycles, r.corun_cycles);
  EXPECT_DOUBLE_EQ(back.wall_seconds_corun, r.wall_seconds_corun);
  EXPECT_DOUBLE_EQ(back.sim_corun_cycles_per_sec, r.sim_corun_cycles_per_sec);
  EXPECT_DOUBLE_EQ(back.analytic_configs_per_sec, r.analytic_configs_per_sec);
  EXPECT_EQ(back.trace_ops, r.trace_ops);
  EXPECT_DOUBLE_EQ(back.trace_cold_ops_per_sec, r.trace_cold_ops_per_sec);
  EXPECT_DOUBLE_EQ(back.trace_warm_ops_per_sec, r.trace_warm_ops_per_sec);
  EXPECT_EQ(back.synth_ops, r.synth_ops);
  EXPECT_DOUBLE_EQ(back.wall_seconds_synth, r.wall_seconds_synth);
  EXPECT_DOUBLE_EQ(back.trace_synth_ops_per_sec, r.trace_synth_ops_per_sec);
}

// BENCH_simulator.json is compared against committed baselines and kept
// as the trajectory, so its exact text is pinned, not only its schema.
TEST(PerfReport, JsonBytesArePinned) {
  PerfReport r;
  r.bench = "lpm_convergence";
  r.cycles = 123;
  r.instructions = 456;
  r.jobs = 7;
  r.analytic_configs = 64;
  r.wall_seconds_simulate = 1.5;
  r.wall_seconds_engine = 2.25;
  r.wall_seconds_analytic = 0.125;
  r.sim_cycles_per_sec = 82.04;
  r.instructions_per_sec = 304.36;
  r.membound_cycles = 999;
  r.membound_instructions = 333;
  r.wall_seconds_membound = 0.7500004;
  r.sim_membound_cycles_per_sec = 1332.0;
  r.corun_cycles = 777;
  r.wall_seconds_corun = 0.5;
  r.sim_corun_cycles_per_sec = 1554.25;
  r.engine_jobs_per_sec = 2.8;
  r.analytic_configs_per_sec = 512.0;
  r.trace_ops = 4096;
  r.wall_seconds_trace_cold = 0.5;
  r.wall_seconds_trace_warm = 0.25;
  r.trace_cold_ops_per_sec = 8192.0;
  r.trace_warm_ops_per_sec = 16384.0;
  r.synth_ops = 1600;
  r.wall_seconds_synth = 0.125;
  r.trace_synth_ops_per_sec = 12800.25;
  EXPECT_EQ(to_json(r),
            "{\"bench\":\"lpm_convergence\",\"cycles\":123,\"instructions\":456,"
            "\"jobs\":7,\"analytic_configs\":64,"
            "\"wall_seconds_simulate\":1.500000,"
            "\"wall_seconds_engine\":2.250000,"
            "\"wall_seconds_analytic\":0.125000,"
            "\"sim_cycles_per_sec\":82.0,\"instructions_per_sec\":304.4,"
            "\"membound_cycles\":999,\"membound_instructions\":333,"
            "\"wall_seconds_membound\":0.750000,"
            "\"sim_membound_cycles_per_sec\":1332.0,\"corun_cycles\":777,"
            "\"wall_seconds_corun\":0.500000,"
            "\"sim_corun_cycles_per_sec\":1554.2,"
            "\"engine_jobs_per_sec\":2.800,"
            "\"analytic_configs_per_sec\":512.0,\"trace_ops\":4096,"
            "\"wall_seconds_trace_cold\":0.500000,"
            "\"wall_seconds_trace_warm\":0.250000,"
            "\"trace_cold_ops_per_sec\":8192.0,"
            "\"trace_warm_ops_per_sec\":16384.0,\"synth_ops\":1600,"
            "\"wall_seconds_synth\":0.125000,"
            "\"trace_synth_ops_per_sec\":12800.2}\n");
}

TEST(PerfReport, LegacyReportsWithoutAnalyticKeysStillParse) {
  // Baselines written before the analytic-screening phase carry no
  // analytic_* keys; they must load with 0 ("not measured"), and the gate
  // must then skip the analytic metric entirely.
  const std::string legacy =
      "{\"bench\":\"lpm_convergence\",\"cycles\":10,\"instructions\":20,"
      "\"jobs\":2,\"wall_seconds_simulate\":1.0,\"wall_seconds_engine\":1.0,"
      "\"sim_cycles_per_sec\":10.0,\"instructions_per_sec\":20.0,"
      "\"engine_jobs_per_sec\":2.0}";
  const PerfReport baseline = parse_report(legacy);
  EXPECT_EQ(baseline.analytic_configs, 0u);
  EXPECT_DOUBLE_EQ(baseline.analytic_configs_per_sec, 0.0);
  EXPECT_EQ(baseline.trace_ops, 0u);
  EXPECT_DOUBLE_EQ(baseline.trace_cold_ops_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(baseline.trace_warm_ops_per_sec, 0.0);
  EXPECT_EQ(baseline.membound_cycles, 0u);
  EXPECT_DOUBLE_EQ(baseline.sim_membound_cycles_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(baseline.sim_corun_cycles_per_sec, 0.0);
  EXPECT_EQ(baseline.synth_ops, 0u);
  EXPECT_DOUBLE_EQ(baseline.trace_synth_ops_per_sec, 0.0);

  PerfReport current = baseline;
  current.analytic_configs_per_sec = 0.0;  // even "no analytic phase" passes
  current.trace_cold_ops_per_sec = 0.0;    // ...and "no ingestion phase"
  current.trace_warm_ops_per_sec = 0.0;
  current.sim_membound_cycles_per_sec = 0.0;  // ...and "no memory-bound phase"
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.30).ok);
}

TEST(PerfReport, ParseRejectsMissingKeys) {
  EXPECT_THROW(parse_report("{\"bench\":\"x\"}"), util::LpmError);
  EXPECT_THROW(parse_report("not json"), util::LpmError);
}

TEST(PerfBaseline, GateFailsOnlyBelowTolerance) {
  PerfReport baseline;
  baseline.sim_cycles_per_sec = 1000.0;
  baseline.instructions_per_sec = 2000.0;
  baseline.engine_jobs_per_sec = 10.0;
  baseline.sim_membound_cycles_per_sec = 800.0;
  baseline.sim_corun_cycles_per_sec = 600.0;
  baseline.analytic_configs_per_sec = 500.0;
  baseline.trace_cold_ops_per_sec = 100.0;
  baseline.trace_warm_ops_per_sec = 200.0;
  baseline.trace_synth_ops_per_sec = 300.0;

  PerfReport current = baseline;
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.30).ok);

  // The ingestion metrics are gated like the others once the baseline has
  // them.
  current.trace_cold_ops_per_sec = 50.0;  // 50% of baseline
  current.trace_warm_ops_per_sec = 60.0;  // 30% of baseline
  {
    const BaselineCheck failed =
        check_against_baseline(current, baseline, 0.30);
    EXPECT_FALSE(failed.ok);
    ASSERT_EQ(failed.failures.size(), 2u);
    EXPECT_NE(failed.failures[0].find("trace_cold_ops_per_sec"),
              std::string::npos);
    EXPECT_NE(failed.failures[1].find("trace_warm_ops_per_sec"),
              std::string::npos);
  }
  current.trace_cold_ops_per_sec = baseline.trace_cold_ops_per_sec;
  current.trace_warm_ops_per_sec = baseline.trace_warm_ops_per_sec;

  // So is the synthesis rate: 69% of baseline fails.
  current.trace_synth_ops_per_sec = 207.0;
  {
    const BaselineCheck failed =
        check_against_baseline(current, baseline, 0.30);
    EXPECT_FALSE(failed.ok);
    ASSERT_EQ(failed.failures.size(), 1u);
    EXPECT_NE(failed.failures[0].find("trace_synth_ops_per_sec"),
              std::string::npos);
  }
  current.trace_synth_ops_per_sec = baseline.trace_synth_ops_per_sec;

  // The memory-bound rate is gated like the others once the baseline has
  // it: 69% of baseline fails, 71% passes.
  current.sim_membound_cycles_per_sec = 552.0;
  {
    const BaselineCheck failed =
        check_against_baseline(current, baseline, 0.30);
    EXPECT_FALSE(failed.ok);
    ASSERT_EQ(failed.failures.size(), 1u);
    EXPECT_NE(failed.failures[0].find("sim_membound_cycles_per_sec"),
              std::string::npos);
  }
  current.sim_membound_cycles_per_sec = 568.0;
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.30).ok);
  current.sim_membound_cycles_per_sec = baseline.sim_membound_cycles_per_sec;

  // So is the co-run rate: 69% of baseline fails.
  current.sim_corun_cycles_per_sec = 414.0;
  {
    const BaselineCheck failed =
        check_against_baseline(current, baseline, 0.30);
    EXPECT_FALSE(failed.ok);
    ASSERT_EQ(failed.failures.size(), 1u);
    EXPECT_NE(failed.failures[0].find("sim_corun_cycles_per_sec"),
              std::string::npos);
  }
  current.sim_corun_cycles_per_sec = baseline.sim_corun_cycles_per_sec;

  // The analytic metric is gated like the others once the baseline has it.
  current.analytic_configs_per_sec = 340.0;  // 68% of baseline
  {
    const BaselineCheck failed =
        check_against_baseline(current, baseline, 0.30);
    EXPECT_FALSE(failed.ok);
    ASSERT_EQ(failed.failures.size(), 1u);
    EXPECT_NE(failed.failures[0].find("analytic_configs_per_sec"),
              std::string::npos);
  }
  current.analytic_configs_per_sec = baseline.analytic_configs_per_sec;

  // 71% of baseline: inside a 30% tolerance.
  current.sim_cycles_per_sec = 710.0;
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.30).ok);

  // 69% of baseline: regression.
  current.sim_cycles_per_sec = 690.0;
  const BaselineCheck failed = check_against_baseline(current, baseline, 0.30);
  EXPECT_FALSE(failed.ok);
  ASSERT_EQ(failed.failures.size(), 1u);
  EXPECT_NE(failed.failures[0].find("sim_cycles_per_sec"), std::string::npos);

  // Faster than baseline never fails.
  current.sim_cycles_per_sec = 5000.0;
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.30).ok);
}

TEST(PerfBaseline, CommittedBaselineParses) {
  // The committed baseline must stay loadable — CI depends on it.
  const PerfReport baseline = load_report(LPM_PERF_BASELINE_PATH);
  EXPECT_EQ(baseline.bench, "lpm_convergence");
  EXPECT_GT(baseline.sim_cycles_per_sec, 0.0);
  EXPECT_GT(baseline.instructions_per_sec, 0.0);
  EXPECT_GT(baseline.engine_jobs_per_sec, 0.0);
  // The committed baseline carries the memory-bound, analytic, synthesis
  // and ingestion gates.
  EXPECT_GT(baseline.sim_membound_cycles_per_sec, 0.0);
  EXPECT_GT(baseline.analytic_configs_per_sec, 0.0);
  EXPECT_GT(baseline.trace_cold_ops_per_sec, 0.0);
  EXPECT_GT(baseline.trace_warm_ops_per_sec, 0.0);
  EXPECT_GT(baseline.trace_synth_ops_per_sec, 0.0);
}

}  // namespace
}  // namespace lpm::perf
