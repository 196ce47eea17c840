// Calibration warm tasks: a pooled engine runs each calibrating cycle job's
// CPIexe calibrations on another worker while the job simulates. Results,
// errors and the number of calibrations run must not change, and a
// fail-fast abort must stop warm tasks that have not calibrated yet.
//
// The calibration cache is process-wide, so every test gives its machines
// a max_cycles of its own: max_cycles is part of the calibration key and
// no run here comes near it, so the keys are private and the results are
// unchanged.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/design_space.hpp"
#include "core/lpm_algorithm.hpp"
#include "exp/experiment_engine.hpp"
#include "sim/calibration.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm {
namespace {

exp::ExperimentEngine make_engine(unsigned threads) {
  return exp::ExperimentEngine(
      exp::ExperimentEngine::Options::builder().threads(threads).build());
}

TEST(CalibrationOverlap, PooledWalkEqualsTheSerialWalk) {
  const trace::WorkloadProfile workload =
      trace::spec_profile(trace::SpecBenchmark::kBwaves, 30000, 17);
  struct Walk {
    std::vector<core::ArchKnobs> visited;
    std::vector<exp::SimResultPtr> results;
    std::uint64_t calibrations = 0;
  };
  const auto walk = [&workload](unsigned threads, std::uint64_t max_cycles) {
    exp::ExperimentEngine engine = make_engine(threads);
    sim::MachineConfig base = sim::MachineConfig::single_core_default();
    base.max_cycles = max_cycles;
    const std::uint64_t runs_before = sim::calibration_runs();
    core::DesignSpaceExplorer ex(base, workload, core::KnobLevels::standard(),
                                 core::ArchKnobs::config_a(),
                                 core::kCoarseGrainedDelta, &engine);
    core::LpmAlgorithmConfig acfg;
    acfg.delta_percent = core::kCoarseGrainedDelta;
    acfg.max_iterations = 24;
    (void)core::LpmAlgorithm(acfg).run(ex);
    Walk w;
    w.calibrations = sim::calibration_runs() - runs_before;
    w.visited = ex.visited();
    // Every visited point is served back from the engine's memo cache.
    const std::uint64_t executed = engine.simulations_executed();
    for (const core::ArchKnobs& knobs : w.visited) {
      w.results.push_back(engine.run(
          exp::SimJob::solo(knobs.apply(base), workload, /*calibrate=*/true)));
    }
    EXPECT_EQ(engine.simulations_executed(), executed);
    return w;
  };
  const Walk serial = walk(1, 100'000'001);
  const Walk pooled = walk(4, 100'000'002);

  ASSERT_GT(serial.visited.size(), 1u);
  EXPECT_EQ(pooled.visited, serial.visited);
  EXPECT_GT(serial.calibrations, 0u);
  EXPECT_EQ(pooled.calibrations, serial.calibrations);
  ASSERT_EQ(pooled.results.size(), serial.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_TRUE(pooled.results[i]->run == serial.results[i]->run) << "point " << i;
    EXPECT_EQ(pooled.results[i]->calib, serial.results[i]->calib) << "point " << i;
  }
}

TEST(CalibrationOverlap, FailedCalibrationReportsTheSameErrorAtAnyThreadCount) {
  // 50 cycles lets the simulation stop early (an incomplete result is not
  // an error) but makes measure_cpi_exe throw: the warm task swallows that,
  // and the job's own call must report it exactly as a serial engine does.
  sim::MachineConfig machine = sim::MachineConfig::single_core_default();
  machine.max_cycles = 50;
  const exp::SimJob job = exp::SimJob::solo(
      machine, trace::spec_profile(trace::SpecBenchmark::kGcc, 4000, 301),
      /*calibrate=*/true, "calib-throws");
  const auto outcome = [&job](unsigned threads) {
    exp::ExperimentEngine engine = make_engine(threads);
    const std::uint64_t runs_before = sim::calibration_runs();
    exp::SimJobOutcome out = engine.run_batch_outcomes({job}).front();
    EXPECT_EQ(sim::calibration_runs(), runs_before) << "threads=" << threads;
    EXPECT_EQ(engine.cache_size(), 0u) << "threads=" << threads;
    return out;
  };
  const exp::SimJobOutcome serial = outcome(1);
  const exp::SimJobOutcome pooled = outcome(4);
  ASSERT_FALSE(serial.ok());
  EXPECT_NE(serial.error, util::ErrorCode::kCancelled);
  EXPECT_EQ(pooled.error, serial.error);
  EXPECT_EQ(pooled.error_message, serial.error_message);
}

TEST(CalibrationOverlap, FailFastAbortStopsPendingWarmCalibrations) {
  // Batch = {gate, multi}. The gate job (a test backend) fails as soon as
  // the multi job's warm task has finished its first calibration; the warm
  // task must then stop before calibrating the rest of its 16 workloads,
  // and the multi job itself comes back cancelled.
  constexpr std::uint64_t kMaxCycles = 100'000'003;
  const std::uint64_t runs_before = sim::calibration_runs();
  exp::ExperimentEngine::register_backend_executor(
      "overlap-gate", [runs_before](const exp::SimJob&, const sim::RunGuard*)
                          -> exp::SimJobResult {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (sim::calibration_runs() == runs_before &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        throw util::SimError("gate: failing the batch");
      });
  exp::SimJob gate = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 1000, 400),
      /*calibrate=*/false, "gate");
  gate.backend = "overlap-gate";

  exp::SimJob multi;
  multi.machine = sim::MachineConfig::nuca16();
  multi.machine.max_cycles = kMaxCycles;
  for (std::uint32_t c = 0; c < multi.machine.num_cores; ++c) {
    multi.workloads.push_back(
        trace::spec_profile(trace::SpecBenchmark::kGcc, 20000, 410 + c));
  }
  multi.calibrate = true;
  multi.tag = "multi";

  exp::ExperimentEngine engine = make_engine(2);
  const auto outcomes = engine.run_batch_outcomes(
      {gate, multi}, exp::BatchOptions{exp::FailurePolicy::kFailFast, false});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].error, util::ErrorCode::kSim);
  EXPECT_EQ(outcomes[1].error, util::ErrorCode::kCancelled);
  const std::uint64_t calibrated = sim::calibration_runs() - runs_before;
  EXPECT_GE(calibrated, 1u);
  EXPECT_LT(calibrated, multi.workloads.size())
      << "the warm task kept calibrating after the batch aborted";
}

}  // namespace
}  // namespace lpm
