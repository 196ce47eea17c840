#include "lpm.hpp"

namespace lpm {

const core::AppMeasurement& SimulationReport::app(std::size_t idx) const {
  util::require(idx < apps.size(),
                "SimulationReport: no such app measurement (was the spec "
                "simulated with calibrate = false?)");
  return apps[idx];
}

std::unique_ptr<exp::ExperimentEngine> make_engine(const EngineOptions& opts) {
  return std::make_unique<exp::ExperimentEngine>(
      exp::ExperimentEngine::Options::builder()
          .threads(opts.threads)
          .cache(opts.cache_enabled)
          .build());
}

SimulationReport simulate(const sim::MachineConfig& machine,
                          const TraceSpec& spec) {
  model::CycleSimBackend backend;
  model::LayerEstimates est = backend.evaluate(machine, spec);

  SimulationReport report;
  report.run = est.result->run;
  report.calib = est.result->calib;
  report.duration_ms = est.cost_ms;
  report.apps = std::move(est.apps);
  report.lpmr = est.lpmr;
  return report;
}

model::LayerEstimates estimate(const sim::MachineConfig& machine,
                               const TraceSpec& spec,
                               const std::string& backend) {
  return model::make_backend(backend)->evaluate(machine, spec);
}

core::LpmOutcome run_lpm_walk(core::LpmTunable& system,
                              const core::LpmAlgorithmConfig& cfg) {
  return core::LpmAlgorithm(cfg).run(system);
}

ScreenedWalkReport run_lpm_walk_screened(const sim::MachineConfig& base,
                                         const trace::WorkloadProfile& workload,
                                         const core::KnobLevels& levels,
                                         const core::ArchKnobs& start,
                                         const core::LpmAlgorithmConfig& cfg,
                                         const std::string& screen_backend,
                                         exp::ExperimentEngine* engine) {
  util::require(screen_backend != exp::kCycleBackend,
                "run_lpm_walk_screened: the screen backend must be analytic "
                "(rdh or fa); a cycle screen would just walk twice");

  core::DesignSpaceExplorer screen(base, workload, levels, start,
                                   cfg.delta_percent, engine, screen_backend);
  core::DesignSpaceExplorer confirm(base, workload, levels, start,
                                    cfg.delta_percent, engine,
                                    exp::kCycleBackend);

  const core::LpmAlgorithm algorithm(cfg);
  ScreenedWalkReport report;
  report.screen = algorithm.run(screen);
  // The screening trajectory becomes a one-shot concurrent warm-up batch
  // for the confirm walk: every cycle simulation is either on the screened
  // path or on the confirm walk's own critical path.
  confirm.set_prefetch_hints(screen.visited());
  report.confirm = algorithm.run(confirm);
  report.final_config = confirm.current();
  report.screen_configs = screen.configs_evaluated();
  report.confirm_configs = confirm.configs_evaluated();
  return report;
}

}  // namespace lpm
