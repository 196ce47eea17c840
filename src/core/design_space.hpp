// Case Study I substrate: the reconfigurable-architecture design space.
//
// Six knobs (Table I): pipeline issue width, instruction-window size, ROB
// size, L1 port count, MSHR entries, and L2 interleaving (banks). With ten
// levels per knob the space holds 10^6 configurations - far too many to
// search exhaustively, which is exactly the paper's argument for letting the
// LPM algorithm steer the walk.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/lpm_algorithm.hpp"
#include "exp/experiment_engine.hpp"
#include "model/backend.hpp"
#include "sim/machine_config.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::core {

struct ArchKnobs {
  std::uint32_t issue_width = 4;
  std::uint32_t iw_size = 32;
  std::uint32_t rob_size = 32;
  std::uint32_t l1_ports = 1;
  std::uint32_t mshr_entries = 4;
  std::uint32_t l2_interleave = 4;

  /// Applies the knobs onto a base machine (issue/dispatch/commit widths
  /// move together; L1 MSHRs get the knob, L2 MSHRs scale with it).
  [[nodiscard]] sim::MachineConfig apply(sim::MachineConfig base) const;

  /// Relative silicon cost in arbitrary units; drives over-provision
  /// trimming (cheaper config preferred among those meeting the target).
  [[nodiscard]] double hardware_cost() const;

  [[nodiscard]] std::string label() const;
  [[nodiscard]] bool operator==(const ArchKnobs&) const = default;
  [[nodiscard]] auto operator<=>(const ArchKnobs&) const = default;

  // Table I columns.
  [[nodiscard]] static ArchKnobs config_a();
  [[nodiscard]] static ArchKnobs config_b();
  [[nodiscard]] static ArchKnobs config_c();
  [[nodiscard]] static ArchKnobs config_d();
  [[nodiscard]] static ArchKnobs config_e();
};

/// Allowed values per knob (ten levels each, Table-I values included).
struct KnobLevels {
  std::vector<std::uint32_t> issue_width;
  std::vector<std::uint32_t> iw_size;
  std::vector<std::uint32_t> rob_size;
  std::vector<std::uint32_t> l1_ports;
  std::vector<std::uint32_t> mshr_entries;
  std::vector<std::uint32_t> l2_interleave;

  [[nodiscard]] static KnobLevels standard();
  [[nodiscard]] std::uint64_t space_size() const;
};

/// Runs the workload on a knob configuration and returns its measurement.
/// All evaluations go through the experiment engine (parallel + memoized)
/// as backend-tagged jobs; derived model::LayerEstimates are additionally
/// memoized per configuration. The unit the LPM algorithm drives in Case
/// Study I, at either fidelity: `backend` picks the evaluating model
/// ("cycle" = sim::System, "rdh"/"fa" = the analytic fast paths).
class DesignSpaceExplorer final : public LpmTunable {
 public:
  /// `engine` = nullptr uses the process-wide shared engine.
  DesignSpaceExplorer(sim::MachineConfig base, trace::WorkloadProfile workload,
                      KnobLevels levels, ArchKnobs start,
                      double delta_percent = kFineGrainedDelta,
                      exp::ExperimentEngine* engine = nullptr,
                      std::string backend = exp::kCycleBackend);

  // --- LpmTunable ---
  LpmObservation measure() override;
  bool optimize_l1() override;
  bool optimize_l2() override;
  bool reduce_overprovision() override;
  /// Submits the pending prefetch hints (set_prefetch_hints) as one
  /// concurrent batch; a no-op once they are consumed. There is no
  /// speculative frontier: a batch blocks the walk until its slowest job
  /// finishes, so guessing the next step never beats taking it.
  void prefetch_candidates() override;

  [[nodiscard]] const ArchKnobs& current() const { return knobs_; }
  void set_delta_percent(double delta) { delta_percent_ = delta; }
  [[nodiscard]] double delta_percent() const { return delta_percent_; }
  /// The model backend evaluating this explorer's points.
  [[nodiscard]] const std::string& backend() const { return backend_; }

  /// Evaluates an arbitrary configuration (memoized); used by the Table-I
  /// bench to print the fixed A-E columns.
  [[nodiscard]] const AppMeasurement& evaluate(const ArchKnobs& knobs);
  /// The full fidelity-tagged estimate of a configuration (memoized).
  [[nodiscard]] const model::LayerEstimates& estimate(const ArchKnobs& knobs);

  /// Configurations to batch-submit on the next prefetch_candidates()
  /// call (consumed once). The screen-then-confirm walk passes the
  /// screening trajectory here so the confirm walk's simulations start
  /// concurrently up front; purely a throughput hint — failed or unused
  /// hints never affect the walk.
  void set_prefetch_hints(std::vector<ArchKnobs> hints);
  /// Every configuration this explorer evaluated, in first-evaluation
  /// order (on-path and batched alike) — the screening trajectory handed
  /// to the confirm stage. Independent of the engine's thread count.
  [[nodiscard]] const std::vector<ArchKnobs>& visited() const {
    return visited_;
  }

  /// Submits every not-yet-memoized configuration in `batch` to the engine
  /// as one concurrent batch. Subsequent evaluate()/measure() calls on
  /// these configurations are cache-served. Runs collect-and-continue: a
  /// failing point is logged and left unmemoized instead of aborting the
  /// batch (on-path evaluations stay fail-fast; see evaluate_full).
  void evaluate_batch(const std::vector<ArchKnobs>& batch);

  /// Configurations simulated so far (cache size = distinct configs).
  [[nodiscard]] std::size_t configs_evaluated() const { return memo_.size(); }
  /// Reconfiguration operations applied (paper: 4 cycles each).
  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfig_ops_; }
  [[nodiscard]] std::uint64_t reconfiguration_cost_cycles() const {
    return reconfig_ops_ * kReconfigCostCycles;
  }

  static constexpr std::uint64_t kReconfigCostCycles = 4;

 private:
  const model::LayerEstimates& evaluate_full(const ArchKnobs& knobs);
  [[nodiscard]] LpmObservation observe(const ArchKnobs& knobs);
  [[nodiscard]] exp::ExperimentEngine& engine() const;
  [[nodiscard]] exp::SimJob make_job(const ArchKnobs& knobs) const;
  const model::LayerEstimates& memoize(const ArchKnobs& knobs,
                                       const exp::SimJob& job,
                                       exp::SimResultPtr result);
  /// Next level above `value` in `levels` (returns value if already max).
  [[nodiscard]] static std::uint32_t step_up(const std::vector<std::uint32_t>& levels,
                                             std::uint32_t value);
  [[nodiscard]] static std::uint32_t step_down(const std::vector<std::uint32_t>& levels,
                                               std::uint32_t value);
  void apply_knobs(const ArchKnobs& next);

  sim::MachineConfig base_;
  trace::WorkloadProfile workload_;
  KnobLevels levels_;
  ArchKnobs knobs_;
  double delta_percent_;
  exp::ExperimentEngine* engine_;  ///< non-owning; nullptr = shared engine
  std::string backend_;
  std::map<ArchKnobs, model::LayerEstimates> memo_;
  std::vector<ArchKnobs> visited_;
  std::vector<ArchKnobs> hints_;
  std::uint64_t reconfig_ops_ = 0;
};

/// Screen-then-confirm over an explicit candidate set: rank all candidates
/// with a cheap analytic backend, then re-evaluate only the surviving
/// frontier cycle-accurately. The sweep analogue of
/// lpm::run_lpm_walk_screened for when the configurations of interest are
/// enumerable up front (ablation grids, Table-I style comparisons).
struct SweepOptions {
  /// Analytic backend ranking the full candidate set.
  std::string screen_backend = model::kRdhBackend;
  /// Candidates surviving the screen and re-evaluated cycle-accurately.
  std::size_t confirm_top_k = 8;
  double delta_percent = kFineGrainedDelta;
  /// nullptr = the process-wide shared engine.
  exp::ExperimentEngine* engine = nullptr;
};

/// One candidate's ranking entry (screen or confirm fidelity).
struct RankedConfig {
  ArchKnobs knobs;
  std::string backend;
  bool meets_t1 = false;
  double lpmr1 = 0.0;
  double t1 = 0.0;
  double stall_per_instr = 0.0;
  double hardware_cost = 0.0;
};

struct SweepResult {
  /// Every candidate, analytically ranked: T1-meeting configs first (by
  /// hardware cost, cheapest first), then the rest by LPMR1 distance.
  std::vector<RankedConfig> screened;
  /// The surviving frontier re-ranked from cycle-accurate evaluations.
  std::vector<RankedConfig> confirmed;
  /// Best confirmed configuration (first of `confirmed`).
  ArchKnobs best;
  std::size_t analytic_evals = 0;
  std::size_t cycle_evals = 0;
};

/// Throws util::ConfigError for an empty candidate list or an unknown
/// screen backend.
[[nodiscard]] SweepResult screen_then_confirm_sweep(
    const sim::MachineConfig& base, const trace::WorkloadProfile& workload,
    const std::vector<ArchKnobs>& candidates, const SweepOptions& opts = {});

}  // namespace lpm::core
