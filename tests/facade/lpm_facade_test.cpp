// The public facade (src/lpm.hpp): TraceSpec construction and expansion,
// simulate() through the shared experiment engine (including its memo-cache
// determinism), and run_lpm_walk() over a toy tunable. External consumers
// see nothing below this header, so this suite is their contract.
#include "lpm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

namespace lpm {
namespace {

sim::MachineConfig small_machine() {
  auto m = sim::MachineConfig::single_core_default();
  m.max_cycles = 2'000'000;
  return m;
}

TEST(Facade, TraceSpecByNameAndUnknownName) {
  const TraceSpec spec = TraceSpec::spec("429.mcf", 4000, 3);
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "429.mcf");
  EXPECT_TRUE(spec.calibrate);
  EXPECT_THROW((void)TraceSpec::spec("999.nope"), util::ConfigError);
}

TEST(Facade, TraceSpecExpansionRules) {
  const TraceSpec one = TraceSpec::spec("403.gcc", 2000, 3);
  EXPECT_EQ(one.expand(1).size(), 1u);
  const auto four = one.expand(4);  // single entry replicates
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four[3].name, "403.gcc");

  TraceSpec two = TraceSpec::profiles(
      {one.workloads[0], TraceSpec::spec("429.mcf", 2000, 3).workloads[0]});
  EXPECT_EQ(two.expand(2).size(), 2u);
  EXPECT_THROW((void)two.expand(3), util::LpmError);  // 2 != 3 and != 1

  const TraceSpec empty;
  EXPECT_THROW((void)empty.expand(1), util::LpmError);
}

TEST(Facade, SimulateProducesARunAndMeasurements) {
  const auto report =
      simulate(small_machine(), TraceSpec::spec("429.mcf", 5000, 3));
  EXPECT_TRUE(report.run.completed);
  ASSERT_EQ(report.calib.size(), 1u);
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_GT(report.calib[0].cpi_exe, 0.0);
  EXPECT_EQ(report.app().app, "429.mcf");
  EXPECT_GT(report.app().instructions, 0u);
  EXPECT_GT(report.lpmr.lpmr1, 0.0) << "mcf must show an L1 mismatch";
}

TEST(Facade, SimulateWithoutCalibrationSkipsTheModel) {
  TraceSpec spec = TraceSpec::spec("445.gobmk", 4000, 5);
  spec.calibrate = false;
  const auto report = simulate(small_machine(), spec);
  EXPECT_TRUE(report.run.completed);
  EXPECT_TRUE(report.calib.empty());
  EXPECT_TRUE(report.apps.empty());
  EXPECT_EQ(report.lpmr.lpmr1, 0.0);
  EXPECT_THROW((void)report.app(), util::LpmError);
}

TEST(Facade, SimulateIsDeterministicAcrossCalls) {
  // Second call is typically served from the engine's memo cache; either
  // way the facade promises bit-identical reports for equal inputs.
  const auto machine = small_machine();
  const TraceSpec spec = TraceSpec::spec("462.libquantum", 5000, 9);
  const auto a = simulate(machine, spec);
  const auto b = simulate(machine, spec);
  EXPECT_EQ(a.run, b.run);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.lpmr, b.lpmr);
  EXPECT_DOUBLE_EQ(a.app().cpi_exe, b.app().cpi_exe);
  EXPECT_DOUBLE_EQ(a.app().measured_stall_per_instr,
                   b.app().measured_stall_per_instr);
}

TEST(Facade, SimulateMulticoreReplicatesTheWorkload) {
  auto machine = small_machine();
  machine.num_cores = 2;
  const auto report =
      simulate(machine, TraceSpec::spec("401.bzip2", 3000, 3));
  EXPECT_TRUE(report.run.completed);
  ASSERT_EQ(report.apps.size(), 2u);
  EXPECT_EQ(report.run.cores.size(), 2u);
  EXPECT_EQ(report.app(0).app, report.app(1).app);
}

/// A tunable whose LPMR1 drops by a fixed step per optimization: the walk
/// must terminate in Case IV after a predictable number of iterations.
class ToyTunable final : public core::LpmTunable {
 public:
  core::LpmObservation measure() override {
    core::LpmObservation obs;
    obs.lpmr.lpmr1 = lpmr1_;
    obs.lpmr.lpmr2 = 0.0;
    obs.t1 = 0.5;
    obs.t2 = 1.0;
    obs.config_label = "toy(" + std::to_string(steps_) + ")";
    return obs;
  }
  bool optimize_l1() override {
    ++steps_;
    lpmr1_ -= 0.3;
    return true;
  }
  bool optimize_l2() override { return false; }
  bool reduce_overprovision() override { return false; }

  int steps_ = 0;
  double lpmr1_ = 1.2;
};

// Machines and engine options are plain values: designated initializers
// and field writes must stay valid for every caller.
static_assert(std::is_aggregate_v<sim::MachineConfig>);
static_assert(std::is_aggregate_v<exp::ExperimentEngine::Options>);

TEST(Facade, EngineOptionsBuildARealEngine) {
  const exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options{.threads = 2});
  EXPECT_EQ(engine.threads(), 2u);
  // Defaults build too.
  const exp::ExperimentEngine defaults;
  EXPECT_GE(defaults.threads(), 1u);
}

TEST(Facade, MakeEngineValidatesOptions) {
  // Past the 256-thread pool ceiling the engine refuses its options.
  EXPECT_THROW(
      exp::ExperimentEngine(exp::ExperimentEngine::Options{.threads = 257}),
      util::ConfigError);
}

TEST(Facade, MadeEngineIsDeterministicAndCaches) {
  exp::ExperimentEngine pooled(exp::ExperimentEngine::Options{.threads = 2});
  exp::ExperimentEngine serial(exp::ExperimentEngine::Options{.threads = 1});

  exp::SimJob job;
  job.machine = small_machine();
  job.workloads = {trace::spec_profile(trace::SpecBenchmark::kMcf, 5000, 3)};
  job.tag = "facade-engine";

  const auto a = pooled.run(job);
  const auto b = serial.run(job);
  EXPECT_EQ(a->run, b->run) << "pooled and serial engines must agree";
  EXPECT_EQ(pooled.run(job).get(), a.get()) << "second run is a cache hit";
  EXPECT_EQ(pooled.cache_hits(), 1u);
}

TEST(Facade, LpmWalkConvergesOnAToyTunable) {
  ToyTunable toy;
  core::LpmAlgorithmConfig cfg;
  cfg.trim_overprovision = false;  // land in Case IV, not Case III
  const auto outcome = run_lpm_walk(toy, cfg);
  EXPECT_TRUE(outcome.converged);
  EXPECT_FALSE(outcome.exhausted);
  // 1.2 -> 0.9 -> 0.6 -> 0.3 <= T1: three optimization steps.
  EXPECT_EQ(toy.steps_, 3);
  EXPECT_NEAR(outcome.final_observation.lpmr.lpmr1, 0.3, 1e-12);
  ASSERT_FALSE(outcome.steps.empty());
  EXPECT_EQ(outcome.steps.back().action, core::LpmAction::kDone);
}

}  // namespace
}  // namespace lpm
