// The LPMR Reduction Algorithm (paper Fig. 3).
//
// The algorithm is deliberately abstract: it measures a tunable system,
// classifies the mismatch into the four cases of Fig. 3, and applies one
// optimization action per iteration until convergence. Case Study I plugs
// in a reconfigurable-architecture explorer; Case Study II plugs in a
// scheduler. Both implement LpmTunable.
#pragma once

#include <string>
#include <vector>

#include "core/lpm_model.hpp"

namespace lpm::core {

/// What the algorithm decides to do after each measurement.
enum class LpmAction {
  kOptimizeBoth,         ///< Case I:  LPMR1 > T1 and LPMR2 > T2
  kOptimizeL1,           ///< Case II: LPMR1 > T1 and LPMR2 <= T2
  kReduceOverprovision,  ///< Case III: LPMR1 + delta < T1
  kDone,                 ///< Case IV: T1 - delta <= LPMR1 <= T1
};

[[nodiscard]] const char* to_string(LpmAction a);

/// One measurement of the system under optimization.
struct LpmObservation {
  LpmrSet lpmr;
  double t1 = 0.0;
  double t2 = 0.0;
  double stall_per_instr = 0.0;
  double cpi_exe = 1.0;
  double overlap_ratio = 0.0;
  std::string config_label;  ///< human-readable current configuration
  /// Model backend that produced this measurement ("cycle", "rdh", "fa");
  /// empty for tunables that do not route through a ModelBackend.
  std::string backend;
};

/// The system being optimized. measure() must reflect any action applied
/// since the previous call.
class LpmTunable {
 public:
  virtual ~LpmTunable() = default;
  virtual LpmObservation measure() = 0;
  /// Apply one L1-layer optimization step; false = no further step exists.
  virtual bool optimize_l1() = 0;
  /// Apply one L2-layer optimization step; false = no further step exists.
  virtual bool optimize_l2() = 0;
  /// Remove one unit of hardware over-provision without violating T1;
  /// false = nothing can be reduced.
  virtual bool reduce_overprovision() = 0;
  /// Called at the top of each iteration: batch-submit the candidate
  /// configurations the next measure/optimize calls are likely to need
  /// (e.g. through the experiment engine) so they simulate concurrently.
  /// Purely a throughput hint — results must be unaffected.
  virtual void prefetch_candidates() {}
};

struct LpmAlgorithmConfig {
  double delta_percent = kFineGrainedDelta;  ///< 1 = fine-grained, 10 = coarse
  double margin_fraction = 0.5;  ///< delta = margin_fraction * T1 (paper: 50%)
  int max_iterations = 64;
  bool trim_overprovision = true;  ///< Case III is optional in the paper
};

struct LpmStep {
  int iteration = 0;
  LpmAction action = LpmAction::kDone;
  LpmObservation observation;  ///< measurement that led to the action
  bool applied = false;        ///< whether the tunable had a step available
};

struct LpmOutcome {
  std::vector<LpmStep> steps;
  LpmObservation final_observation;
  bool converged = false;  ///< reached Case IV (or Case III floor)
  bool exhausted = false;  ///< optimizer ran out of actions before converging
};

/// What run_two_stage produces: the cheap screening walk and the
/// authoritative confirmation walk. The confirmation walk alone decides the
/// final configuration — the screening stage only warms caches / narrows
/// the frontier — so `confirm` is exactly what a single-fidelity walk over
/// the confirm tunable would have produced.
struct LpmTwoStageOutcome {
  LpmOutcome screen;
  LpmOutcome confirm;
};

class LpmAlgorithm {
 public:
  explicit LpmAlgorithm(LpmAlgorithmConfig cfg);

  /// Classifies one observation into a Fig. 3 case.
  [[nodiscard]] LpmAction classify(const LpmObservation& obs) const;

  /// Runs the optimization loop to convergence or exhaustion.
  LpmOutcome run(LpmTunable& system) const;

  /// Multi-fidelity screen-then-confirm: run the walk over `screen` (a
  /// cheap, typically analytic tunable) first, then over `confirm` (the
  /// cycle-accurate tunable). Every decision of the confirm walk is made
  /// from its own measurements, so its outcome is identical to running
  /// run(confirm) alone; callers wire the screening trajectory into the
  /// confirm tunable as prefetch hints (see DesignSpaceExplorer::
  /// set_prefetch_hints) to convert the screening knowledge into batched,
  /// cache-warming simulations rather than into decisions.
  LpmTwoStageOutcome run_two_stage(LpmTunable& screen,
                                   LpmTunable& confirm) const;

  [[nodiscard]] const LpmAlgorithmConfig& config() const { return cfg_; }

 private:
  LpmAlgorithmConfig cfg_;
};

}  // namespace lpm::core
