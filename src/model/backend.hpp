// The ModelBackend seam: one interface for "evaluate a MachineConfig on a
// TraceSpec", with interchangeable fidelities behind it.
//
//  * CycleSimBackend routes through the experiment engine's cycle-accurate
//    sim::System path — slow, authoritative.
//  * AnalyticBackend ("rdh", "fa") predicts the same LayerEstimates from a
//    one-off reuse-distance profile of the trace (src/model/analytic.hpp)
//    in microseconds per config — fast, approximate.
//
// Every backend funnels through exp::ExperimentEngine as a backend-tagged
// SimJob, so memoization, batching, retries and sinks apply to
// analytic evaluations exactly as they do to simulations, and the memo
// cache keeps the fidelities apart (the backend is part of the job
// fingerprint). Consumers that only need numbers read LayerEstimates;
// consumers that need raw counters keep the underlying SimJobResult via
// LayerEstimates::result.
//
// When is which fidelity trustworthy? See DESIGN.md §"Model backends" and
// the quantified error bounds in src/check/fidelity.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "model/measurement.hpp"
#include "model/trace_spec.hpp"
#include "sim/machine_config.hpp"

namespace lpm::model {

/// Names of the analytic backends implemented in src/model/analytic.hpp.
inline constexpr const char* kRdhBackend = "rdh";
inline constexpr const char* kFaBackend = "fa";

enum class Fidelity {
  kCycleAccurate,  ///< ticked every cycle through sim::System
  kAnalytic,       ///< closed-form prediction from a trace profile
};

[[nodiscard]] const char* to_string(Fidelity f);

/// What one evaluation of (machine, spec) estimates, at any fidelity: the
/// per-level C-AMAT picture, the LPM ratios and stall terms, and enough
/// hardware signals for the concurrency diagnosis. This is the currency of
/// the design-space walk — it never reaches into sim::SystemResult.
struct LayerEstimates {
  /// One memory layer of core 0's chain, L1 outward.
  struct Level {
    std::string name;  ///< "l1", "l2p", "l2", "dram"
    double mr = 0.0;
    double pmr = 0.0;
    double camat = 0.0;           ///< active cycles per access of this level
    double camat_per_miss = 0.0;  ///< per upstream miss (Eqs. 4/10/11)
  };
  /// Concurrency-diagnosis inputs (exact on cycle runs, estimated on
  /// analytic ones).
  struct HwSignals {
    std::uint64_t l1_rejections = 0;
    std::uint64_t l1_mshr_wait_cycles = 0;
    std::uint64_t l1_misses = 0;
  };

  std::string backend = exp::kCycleBackend;
  Fidelity fidelity = Fidelity::kCycleAccurate;
  /// Wall clock of the producing execution (cache hits report the
  /// original run's cost).
  double cost_ms = 0.0;
  std::uint64_t fingerprint = 0;

  std::vector<AppMeasurement> apps;  ///< per core; empty if !calibrate
  LpmrSet lpmr;                      ///< of app(0); zeros if !calibrate
  double stall_per_instr_eq12 = 0.0;
  double stall_per_instr_eq13 = 0.0;
  std::vector<Level> levels;
  HwSignals hw;
  /// The producing result; never null. Escape hatch for consumers that
  /// need raw counters (benches, the oracle).
  exp::SimResultPtr result;

  /// The measurement of core `idx`; throws if calibration was disabled.
  [[nodiscard]] const AppMeasurement& app(std::size_t idx = 0) const;

  /// Derives the estimate view from an engine result.
  [[nodiscard]] static LayerEstimates from_result(const exp::SimJob& job,
                                                  exp::SimResultPtr result);
};

/// The seam. Implementations must be deterministic in (machine, spec).
class ModelBackend {
 public:
  virtual ~ModelBackend() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual Fidelity fidelity() const = 0;
  /// Blocking; cached via the engine. Throws the job's typed error.
  [[nodiscard]] virtual LayerEstimates evaluate(
      const sim::MachineConfig& machine, const TraceSpec& spec) = 0;
};

/// Shared implementation: route a backend-tagged SimJob through an
/// ExperimentEngine (nullptr = the process-wide shared() engine).
class EngineBackend : public ModelBackend {
 public:
  EngineBackend(std::string name, Fidelity fidelity,
                exp::ExperimentEngine* engine);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Fidelity fidelity() const override { return fidelity_; }
  [[nodiscard]] LayerEstimates evaluate(const sim::MachineConfig& machine,
                                        const TraceSpec& spec) override;

  /// The tagged job evaluate() submits; exposed so batch drivers can
  /// submit many points through one engine call.
  [[nodiscard]] exp::SimJob make_job(const sim::MachineConfig& machine,
                                     const TraceSpec& spec) const;
  [[nodiscard]] exp::ExperimentEngine& engine() const;

 private:
  std::string name_;
  Fidelity fidelity_;
  exp::ExperimentEngine* engine_;  ///< non-owning; nullptr = shared()
};

/// The existing cycle path behind the seam: sim::System + measure_cpi_exe.
class CycleSimBackend final : public EngineBackend {
 public:
  explicit CycleSimBackend(exp::ExperimentEngine* engine = nullptr);
};

/// An analytic fast path ("rdh" or "fa"); constructing one registers the
/// analytic executors with the engine (see src/model/analytic.hpp).
class AnalyticBackend final : public EngineBackend {
 public:
  explicit AnalyticBackend(std::string name,
                           exp::ExperimentEngine* engine = nullptr);
};

/// All backend names make_backend accepts: {"cycle", "rdh", "fa"}.
[[nodiscard]] const std::vector<std::string>& backend_names();

/// Factory by name; throws util::ConfigError for an unknown name.
[[nodiscard]] std::unique_ptr<ModelBackend> make_backend(
    const std::string& name, exp::ExperimentEngine* engine = nullptr);

}  // namespace lpm::model
