// Case-Study-I scenario: let the LPM algorithm reconfigure the architecture
// for a workload, watching each Fig. 3 decision as it happens.
//
//   $ ./reconfigure [workload=410.bwaves] [delta=10] [length=300000] [threads=0]
//
// threads=N sizes the experiment engine's worker pool (0 = auto: LPM_THREADS
// or the hardware concurrency). Workers simulate the over-provision trim
// candidates of a step concurrently; the walk itself is the same for any N.
#include <cstdio>
#include <string>

#include "lpm.hpp"
#include "obs/metrics.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace lpm;
  const auto args = util::KvConfig::from_args(argc, argv);
  const std::string name = args.get_or("workload", "410.bwaves");
  const double delta = args.get_double_or("delta", 10.0);
  const std::uint64_t length = args.get_uint_or("length", 300'000);
  const std::uint64_t threads = args.get_uint_or("threads", 0);
  // Checked before the narrowing below, which would wrap 2^32 + 1 to 1.
  if (threads > exp::kMaxThreads) {
    throw util::ConfigError("threads=" + std::to_string(threads) +
                            " exceeds the engine's ceiling of " +
                            std::to_string(exp::kMaxThreads));
  }

  trace::WorkloadProfile workload;
  bool found = false;
  for (const auto b : trace::all_spec_benchmarks()) {
    if (trace::spec_name(b) == name) {
      workload = trace::spec_profile(b, length, 17);
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }

  exp::ExperimentEngine engine(exp::ExperimentEngine::Options{
      .threads = static_cast<unsigned>(threads)});

  core::DesignSpaceExplorer explorer(
      sim::MachineConfig::single_core_default(), workload,
      core::KnobLevels::standard(), core::ArchKnobs::config_a(), delta,
      &engine);

  core::LpmAlgorithmConfig cfg;
  cfg.delta_percent = delta;
  cfg.max_iterations = 24;
  const core::LpmAlgorithm algorithm(cfg);

  std::printf("Optimizing %s at delta = %.0f%% (design space: %llu configs)\n\n",
              name.c_str(), delta,
              static_cast<unsigned long long>(
                  core::KnobLevels::standard().space_size()));

  const core::LpmOutcome outcome = algorithm.run(explorer);
  for (const auto& step : outcome.steps) {
    std::printf("iter %2d | LPMR1 %6.2f vs T1 %6.2f | LPMR2 %6.2f vs T2 %6.2f"
                " | %-22s | %s\n",
                step.iteration, step.observation.lpmr.lpmr1,
                step.observation.t1, step.observation.lpmr.lpmr2,
                step.observation.t2, core::to_string(step.action),
                step.observation.config_label.c_str());
  }
  std::printf("\n%s after %zu iterations; %zu configurations simulated;\n"
              "%llu reconfiguration ops (%llu cycles); final stall %.4f "
              "cycles/instr (%.1f%% of CPIexe)\n",
              outcome.converged ? "Converged" : "Stopped",
              outcome.steps.size(), explorer.configs_evaluated(),
              static_cast<unsigned long long>(explorer.reconfigurations()),
              static_cast<unsigned long long>(
                  explorer.reconfiguration_cost_cycles()),
              outcome.final_observation.stall_per_instr,
              100.0 * outcome.final_observation.stall_per_instr /
                  outcome.final_observation.cpi_exe);
  std::printf("engine: %u thread(s), %llu simulation(s) executed, "
              "%llu cache hit(s), %.2fs simulation time\n",
              engine.threads(),
              static_cast<unsigned long long>(engine.simulations_executed()),
              static_cast<unsigned long long>(engine.cache_hits()),
              engine.busy_seconds());
  std::printf("%s\n", lpm::obs::summary_line().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const lpm::util::LpmError& e) {
    std::fprintf(stderr, "error[%s]: %s\n",
                 lpm::util::error_code_name(e.code()), e.what());
    return 1;
  }
}
