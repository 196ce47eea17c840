// lpm.hpp — the single public entry point of the library.
//
// Consumers (examples, notebooks, external tools) include this header and
// nothing else below src/: it re-exports every public subsystem header and
// adds the two high-level entry points most programs actually want:
//
//   * lpm::simulate(machine, spec)  — build the traces, run the machine
//     through the shared experiment engine (cached, parallel-safe), and
//     return the run together with its LPM measurement;
//   * lpm::estimate(machine, spec, backend) — the same point through any
//     model backend ("cycle", "rdh", "fa"), returning fidelity-tagged
//     LayerEstimates (microseconds per config for the analytic backends);
//   * lpm::run_lpm_walk(tunable)    — the Fig. 3 LPMR reduction loop over
//     any LpmTunable system;
//   * lpm::run_lpm_walk_screened(...) — the multi-fidelity walk: screen
//     the design space analytically, confirm cycle-accurately.
//
// Machines and engines are plain values: start from a preset
// (sim::MachineConfig::single_core_default(), nuca16(), ...) and write the
// fields that differ, or fill exp::ExperimentEngine::Options with
// designated initializers. The code that consumes them validates them.
//
// Subsystem headers remain includable directly for code that lives inside
// the repo (tests, benches), but examples demonstrate the facade only.
#pragma once

#include "camat/fig1.hpp"
#include "camat/metrics.hpp"
#include "camat/whatif.hpp"
#include "core/design_space.hpp"
#include "core/diagnosis.hpp"
#include "core/interval.hpp"
#include "core/lpm_algorithm.hpp"
#include "core/lpm_model.hpp"
#include "core/online_controller.hpp"
#include "exp/experiment_engine.hpp"
#include "exp/result_sink.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "model/trace_spec.hpp"
#include "sched/evaluate.hpp"
#include "sched/hsp.hpp"
#include "sched/profile.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace lpm {

/// What to run on the machine (lives in src/model so every ModelBackend
/// shares one description; re-exported here under its historical name).
using TraceSpec = model::TraceSpec;

/// Everything simulate() produces: the raw run, the per-core calibrations,
/// and the derived LPM measurements.
struct SimulationReport {
  sim::SystemResult run;
  std::vector<sim::CpiExeResult> calib;    ///< per core; empty if !calibrate
  std::vector<core::AppMeasurement> apps;  ///< per core; empty if !calibrate
  core::LpmrSet lpmr;                      ///< of app(0); zeros if !calibrate
  double duration_ms = 0.0;  ///< wall clock of the producing execution

  /// The measurement of core `idx`; throws if calibration was disabled.
  [[nodiscard]] const core::AppMeasurement& app(std::size_t idx = 0) const;
};

/// Evaluates `spec` on `machine` through the named model backend ("cycle",
/// "rdh" or "fa"; see model::backend_names) and returns the fidelity-tagged
/// layer estimates. Same engine cache as simulate() — but analytic and
/// cycle evaluations of one point are distinct cache entries, never
/// aliases. Throws util::ConfigError for an unknown backend name.
[[nodiscard]] model::LayerEstimates estimate(
    const sim::MachineConfig& machine, const TraceSpec& spec,
    const std::string& backend = model::kRdhBackend);

/// Simulates `spec` on `machine` through the shared experiment engine:
/// repeated evaluations of the same point are served from its memo cache,
/// and concurrent callers share one worker pool. Deterministic — equal
/// inputs produce bit-identical reports.
[[nodiscard]] SimulationReport simulate(const sim::MachineConfig& machine,
                                        const TraceSpec& spec);

/// Runs the LPMR Reduction Algorithm (paper Fig. 3) over `system` until
/// convergence or exhaustion.
[[nodiscard]] core::LpmOutcome run_lpm_walk(
    core::LpmTunable& system, const core::LpmAlgorithmConfig& cfg = {});

/// What run_lpm_walk_screened produces. `final_config` comes from the
/// confirm (cycle-accurate) walk alone — identical to what a cycle-only
/// walk would pick — while the screening walk's trajectory warmed the
/// engine with batched simulations.
struct ScreenedWalkReport {
  core::LpmOutcome screen;   ///< the analytic screening walk
  core::LpmOutcome confirm;  ///< the authoritative cycle walk
  core::ArchKnobs final_config;
  std::size_t screen_configs = 0;   ///< configs the screen stage evaluated
  std::size_t confirm_configs = 0;  ///< configs the confirm stage evaluated
};

/// The multi-fidelity Fig. 3 walk over the Case Study I design space:
/// stage 1 walks with an analytic backend (microseconds per config),
/// stage 2 re-walks cycle-accurately with the screening trajectory as
/// one batch of prefetch hints. Throws
/// util::ConfigError for an unknown screen backend.
[[nodiscard]] ScreenedWalkReport run_lpm_walk_screened(
    const sim::MachineConfig& base, const trace::WorkloadProfile& workload,
    const core::KnobLevels& levels, const core::ArchKnobs& start,
    const core::LpmAlgorithmConfig& cfg = {},
    const std::string& screen_backend = model::kRdhBackend,
    exp::ExperimentEngine* engine = nullptr);

}  // namespace lpm
