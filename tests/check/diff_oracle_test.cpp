// The differential oracle end to end: the acceptance sweep (>= 200 seeded
// fuzz cases with zero divergences and zero property violations), and the
// negative proof — an injected counter bug must be caught, delta-debugged to
// a tiny repro, and survive a replay-file round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "check/diff.hpp"
#include "check/fuzz.hpp"
#include "check/replay.hpp"
#include "common/temp_path.hpp"
#include "trace/lpm2.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_source.hpp"
#include "util/rng.hpp"

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

TEST(DiffOracle, WideCoresAgree) {
  // The fuzzer's cores stay at ROB <= 64; the LPM walk reaches far wider.
  // Re-core seeded cases at issue <= 8, IW/ROB <= 256 and LSQ <= 128, and
  // stretch some dependences past the ROB so producers retire before their
  // consumers dispatch. The optimized core must match RefCore exactly.
  Fuzzer fuzzer;
  for (std::uint64_t seed = 9000; seed < 9040; ++seed) {
    ReplayCase c = fuzzer.generate(seed);
    util::Rng rng(seed);
    cpu::CoreConfig& core = c.machine.core;
    core.issue_width = static_cast<std::uint32_t>(rng.next_in(1, 8));
    core.dispatch_width = static_cast<std::uint32_t>(rng.next_in(1, 8));
    core.commit_width = static_cast<std::uint32_t>(rng.next_in(1, 8));
    core.iw_size = static_cast<std::uint32_t>(rng.next_in(16, 256));
    core.rob_size = std::max(core.iw_size,
                             static_cast<std::uint32_t>(rng.next_in(64, 256)));
    core.lsq_size = static_cast<std::uint32_t>(rng.next_in(16, 128));
    c.machine.validate();
    for (auto& ops : c.ops) {
      for (trace::MicroOp& op : ops) {
        if (rng.next_bool(0.1)) {
          op.dep_dist = static_cast<std::uint32_t>(rng.next_in(1, 300));
        }
      }
    }
    const std::string d = describe_divergence(run_optimized(c), run_reference(c));
    EXPECT_TRUE(d.empty()) << "seed " << seed << ": " << d;
  }
}

TEST(DiffOracle, MemoryContentionCasesAgree) {
  // The seeded sweep draws block-sized cache interleave, 64-byte DRAM
  // interleave, at most 8 DRAM banks and 2 issues per cycle. These cases
  // reach the DRAM scheduler's event gating (up to 64 banks, 256 queue
  // entries, 8 issues per cycle, starvation caps down to 8 cycles), the
  // shift-based cache and DRAM decodes, and MSHR files of 1-64 entries
  // under prefetch degrees up to 8, on 1-4 cores. RefSystem's RefDram and
  // RefCache re-derive all of it with divisions and linear scans.
  FuzzConfig cfg;
  cfg.trace_len = 1000;
  Fuzzer fuzzer(cfg);
  std::uint64_t dram_reads = 0;
  std::uint64_t row_conflicts = 0;
  for (std::uint64_t seed = 7000; seed < 7040; ++seed) {
    const ReplayCase c = fuzzer.generate_memory_contention(seed);
    const sim::SystemResult opt = run_optimized(c);
    const std::string d = describe_divergence(opt, run_reference(c));
    EXPECT_TRUE(d.empty()) << "seed " << seed << ": " << d;
    EXPECT_TRUE(opt.completed) << "seed " << seed;
    dram_reads += opt.dram_stats.reads;
    row_conflicts += opt.dram_stats.row_conflicts;
  }
  // The cases really contend for DRAM rather than hitting in the caches.
  EXPECT_GT(dram_reads, 40u * 1000u) << dram_reads;
  EXPECT_GT(row_conflicts, 0u) << row_conflicts;
}

TEST(DiffOracle, UnevenFinishCasesAgree) {
  // Every other family gives all cores the same trace length, so they
  // finish within a few hundred cycles of each other. Here 1-3 cores run
  // 1-5% of the others' ops: sim::System retires them (and their L1s and
  // private L2s) from the cycle loop long before the run ends, including
  // short cores that finish with dirty lines and queued writebacks, while
  // RefSystem ticks every component to the end.
  FuzzConfig cfg;
  cfg.trace_len = 2000;
  Fuzzer fuzzer(cfg);
  int private_l2_cases = 0;
  int far_apart = 0;
  for (std::uint64_t seed = 9100; seed < 9140; ++seed) {
    const ReplayCase c = fuzzer.generate_uneven_finish(seed);
    const sim::SystemResult opt = run_optimized(c);
    const std::string d = describe_divergence(opt, run_reference(c));
    EXPECT_TRUE(d.empty()) << "seed " << seed << ": " << d;
    EXPECT_TRUE(opt.completed) << "seed " << seed;
    if (c.machine.use_private_l2) ++private_l2_cases;
    const auto [first, last] = std::minmax_element(
        opt.cores.begin(), opt.cores.end(),
        [](const cpu::CoreStats& a, const cpu::CoreStats& b) {
          return a.cycles < b.cycles;
        });
    if (4 * first->cycles < last->cycles) ++far_apart;
  }
  EXPECT_GT(private_l2_cases, 0);
  // The short cores really finish far ahead of the long ones.
  EXPECT_GE(far_apart, 30) << far_apart;
}

TEST(DiffOracle, ReplacementPolicyCasesAgree) {
  // The seeded sweep draws 1-, 2- and 4-way caches only; the paper's L2 is
  // 8-way and nuca16()'s shared LLC 16-way. Here 50 consecutive seeds give
  // the L1 and the shared L2 every policy x {1, 2, 4, 8, 16} ways twice,
  // on small caches that evict on most misses. RefCache's RefReplacement
  // must name the same victim every time.
  FuzzConfig cfg;
  cfg.trace_len = 1000;
  Fuzzer fuzzer(cfg);
  std::set<std::pair<int, std::uint32_t>> l1_evicting;
  std::set<std::pair<int, std::uint32_t>> l2_evicting;
  int multi_core = 0;
  for (std::uint64_t seed = 9200; seed < 9250; ++seed) {
    const ReplayCase c = fuzzer.generate_replacement_policy(seed);
    const sim::SystemResult opt = run_optimized(c);
    const std::string d = describe_divergence(opt, run_reference(c));
    EXPECT_TRUE(d.empty()) << "seed " << seed << ": " << d;
    EXPECT_TRUE(opt.completed) << "seed " << seed;
    const mem::CacheConfig& l1 = c.machine.l1;
    const mem::CacheConfig& l2 = c.machine.l2;
    if (opt.l1_cache.front().evictions > 0) {
      l1_evicting.emplace(static_cast<int>(l1.replacement), l1.associativity);
    }
    if (opt.l2_cache.evictions > 0) {
      l2_evicting.emplace(static_cast<int>(l2.replacement), l2.associativity);
    }
    if (c.machine.num_cores > 1) ++multi_core;
  }
  // Every combination really chose victims, at both levels.
  EXPECT_EQ(l1_evicting.size(), 25u);
  EXPECT_EQ(l2_evicting.size(), 25u);
  EXPECT_GT(multi_core, 0);
  EXPECT_LT(multi_core, 50);
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
