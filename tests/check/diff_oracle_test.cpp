// The differential oracle end to end: the acceptance sweep (>= 200 seeded
// fuzz cases with zero divergences and zero property violations), and the
// negative proof — an injected counter bug must be caught, delta-debugged to
// a tiny repro, and survive a replay-file round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/diff.hpp"
#include "check/fuzz.hpp"
#include "check/replay.hpp"
#include "common/temp_path.hpp"
#include "trace/lpm2.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_source.hpp"

namespace lpm::check {
namespace {

TEST(DiffOracle, TwoHundredSeededCasesAgree) {
  // ISSUE acceptance: zero divergences over >= 200 seeded fuzz cases, with
  // the model properties checked on every completed run. Deterministic: the
  // default seed pins the exact machines and traces.
  FuzzConfig cfg;
  cfg.cases = 200;
  cfg.check_properties = true;
  cfg.minimize = false;  // a failure here should fail fast, not minimize
  Fuzzer fuzzer(cfg);

  const FuzzSummary summary = fuzzer.run();
  EXPECT_EQ(summary.cases_run, 200u);
  EXPECT_EQ(summary.divergences, 0u);
  EXPECT_EQ(summary.property_failures, 0u);
  EXPECT_EQ(summary.roundtrip_failures, 0u);
  ASSERT_TRUE(summary.ok())
      << "first failure: seed=" << summary.failures.front().case_seed << " ["
      << summary.failures.front().kind << "] "
      << summary.failures.front().detail;
}

TEST(DiffOracle, GenerateIsDeterministic) {
  Fuzzer a;
  Fuzzer b;
  const ReplayCase ca = a.generate(42);
  const ReplayCase cb = b.generate(42);
  EXPECT_EQ(replay_to_json(ca), replay_to_json(cb));
  EXPECT_EQ(ca.ops, cb.ops);
  // And a different seed really produces a different case.
  const ReplayCase cc = a.generate(43);
  EXPECT_NE(replay_to_json(ca), replay_to_json(cc));
}

TEST(DiffOracle, InjectedCounterBugIsCaughtAndMinimized) {
  // Seed a bug via the fault-injection hook: drop one L1 miss from the
  // optimized result whenever there is one to drop. The oracle must flag
  // the divergence and ddmin must shrink the trace to (near) the smallest
  // op list that still misses in L1 — a handful of ops, not 1500.
  Fuzzer fuzzer;
  const ReplayCase full = fuzzer.generate(7);
  ASSERT_GE(full.ops[0].size(), 100u);

  DiffOptions opts;
  opts.inject_optimized = [](sim::SystemResult& r) {
    if (!r.l1_cache.empty() && r.l1_cache[0].misses > 0) --r.l1_cache[0].misses;
  };
  opts.minimize = true;
  opts.max_trials = 600;
  DiffRunner runner(opts);

  const DiffReport report = runner.run(full);
  ASSERT_TRUE(report.diverged);
  EXPECT_NE(report.divergence.find("misses"), std::string::npos)
      << report.divergence;
  EXPECT_GT(report.trials, 0u);

  // Any trace with a single memory op misses once in a cold L1, so the
  // minimal repro under this injection is tiny.
  std::size_t minimized_ops = 0;
  for (const auto& core_ops : report.minimized.ops) {
    minimized_ops += core_ops.size();
  }
  ASSERT_GT(minimized_ops, 0u);
  EXPECT_LE(minimized_ops, 8u) << "ddmin left " << minimized_ops << " ops";

  // The minimized case still reproduces under the same injection...
  std::string why;
  EXPECT_TRUE(runner.diverges(report.minimized, &why));
  EXPECT_FALSE(why.empty());

  // ...and still reproduces after a save/load round trip, which is the
  // whole point of writing repro artifacts.
  const std::string path = "injected_repro_test.json";
  save_replay(report.minimized, path);
  const ReplayCase reloaded = load_replay(path);
  EXPECT_TRUE(runner.diverges(reloaded));
  std::remove(path.c_str());

  // Without the injection the very same case is clean: the divergence was
  // the seeded bug, not a real optimized-vs-reference disagreement.
  DiffRunner honest;
  EXPECT_FALSE(honest.diverges(full));
}

TEST(DiffOracle, MinimizationBudgetIsRespected) {
  Fuzzer fuzzer;
  const ReplayCase full = fuzzer.generate(11);

  DiffOptions opts;
  opts.inject_optimized = [](sim::SystemResult& r) {
    if (!r.l1_cache.empty() && r.l1_cache[0].misses > 0) --r.l1_cache[0].misses;
  };
  opts.minimize = true;
  opts.max_trials = 10;  // deliberately starved
  DiffRunner runner(opts);

  const DiffReport report = runner.run(full);
  ASSERT_TRUE(report.diverged);
  EXPECT_LE(report.trials, 10u + 2u);  // budget plus the initial comparison
  // Starved or not, whatever is returned must still reproduce.
  EXPECT_TRUE(runner.diverges(report.minimized));
}

TEST(DiffOracle, DescribeDivergenceNamesTheFirstDifferingCounter) {
  Fuzzer fuzzer;
  const ReplayCase c = fuzzer.generate(3);
  sim::SystemResult opt = run_optimized(c);
  sim::SystemResult ref = run_reference(c);
  ASSERT_TRUE(describe_divergence(opt, ref).empty());

  opt.cycles += 1;
  const std::string why = describe_divergence(opt, ref);
  EXPECT_NE(why.find("cycles"), std::string::npos) << why;
}

TEST(DiffOracle, RecordedTraceFeedsBothSimulatorsIdentically) {
  // Round-trip a fuzz case's op lists through the LPM2 on-disk format and
  // feed the replayed case to both simulators: the optimized and reference
  // results must match the live case's bit for bit, and the honest diff of
  // the replayed case must be clean. This is the oracle-level proof that
  // record-once/replay-many changes nothing about what gets simulated.
  Fuzzer fuzzer;
  const ReplayCase live = fuzzer.generate(19);
  ReplayCase replayed = live;  // same machine; ops come back from disk

  for (std::size_t core = 0; core < live.ops.size(); ++core) {
    const std::string path =
        test::temp_path("recorded_" + std::to_string(core) + ".lpm2");
    trace::VectorTrace source("recorded", live.ops[core]);
    trace::record_trace_v2(source, path);
    trace::Lpm2Trace replay(path, "recorded");
    replayed.ops[core] = trace::materialize(replay, live.ops[core].size() + 1);
    std::remove(path.c_str());
  }
  ASSERT_EQ(replayed.ops, live.ops);

  const sim::SystemResult opt_live = run_optimized(live);
  const sim::SystemResult opt_replayed = run_optimized(replayed);
  EXPECT_TRUE(describe_divergence(opt_live, opt_replayed).empty());
  const sim::SystemResult ref_live = run_reference(live);
  const sim::SystemResult ref_replayed = run_reference(replayed);
  EXPECT_TRUE(describe_divergence(ref_live, ref_replayed).empty());

  DiffRunner honest;
  EXPECT_FALSE(honest.diverges(replayed));
}

}  // namespace
}  // namespace lpm::check
