// Property fuzzer: seeded random machines + synthetic traces, each case run
// through (a) the differential oracle (optimized sim::System vs RefSystem,
// exact SystemResult equality) and (b) the paper's model identities:
//
//   Eq. 3   C-AMAT = 1/APC (and the Eq. 2 parameter decomposition)
//   Eq. 4   the layer recursion, within documented tolerance
//   Eq. 7/12/13  stall-time formulas agree with each other and the core's
//                measured stall within documented tolerance
//   Eq. 14/15    threshold structure: T1 scales linearly in delta, T2 is
//                monotone in delta, and the Fig. 3 case selection is stable
//                under granularity (a run Done at 1% is never sent back to
//                Optimize at 10%)
//
// Each case additionally round-trips its op lists through the LPM2 on-disk
// format (record to a temp file, replay through the file reader, compare
// op by op), so the recorded-trace path is fuzzed with the same seeds as the
// simulators — a codec or replay bug surfaces as a "trace-roundtrip"
// failure, not as silent divergence three layers later.
//
// Divergences are delta-debugged to a minimal repro and written as replay
// JSON (see replay.hpp / tools/lpm_replay). Seed, case count, and the
// round-trip check come from LPM_CHECK_SEED / LPM_CHECK_CASES /
// LPM_CHECK_ROUNDTRIP so CI can vary coverage without a rebuild.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/diff.hpp"
#include "check/replay.hpp"
#include "core/lpm_model.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::check {

struct FuzzConfig {
  std::uint64_t seed = 20260805;  ///< master seed; case i uses seed + i
  std::uint64_t cases = 200;
  std::uint64_t trace_len = 1500;  ///< micro-ops per core
  /// Directory for minimized divergence repros ("lpm-repro-<seed>.json");
  /// empty = don't write artifacts.
  std::string artifact_dir;
  bool check_properties = true;  ///< model identities on top of the diff
  bool minimize = true;          ///< delta-debug divergent cases
  /// Record each case's ops to a temporary LPM2 file and replay them back
  /// through the file reader; any op-level difference or typed error is a
  /// "trace-roundtrip" failure.
  bool check_trace_roundtrip = true;

  /// Applies LPM_CHECK_SEED / LPM_CHECK_CASES / LPM_CHECK_ARTIFACTS /
  /// LPM_CHECK_ROUNDTRIP over the defaults. Malformed numbers throw
  /// util::ConfigError.
  [[nodiscard]] static FuzzConfig from_env();
};

struct FuzzFailure {
  std::uint64_t case_seed = 0;
  std::string kind;    ///< "divergence", "property", or "trace-roundtrip"
  std::string detail;  ///< first differing counter / violated identity
  std::string replay_path;  ///< written artifact (divergences only; may be empty)
};

struct FuzzSummary {
  std::uint64_t cases_run = 0;
  std::uint64_t divergences = 0;
  std::uint64_t property_failures = 0;
  std::uint64_t roundtrip_failures = 0;  ///< LPM2 record/replay mismatches
  std::uint64_t simulator_pairs = 0;  ///< optimized+reference executions (incl. minimization)
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Checks the per-run counter identities (Eq. 3 exact inverse, Eq. 2
/// decomposition, active = hit + pure-miss partition, conservation of
/// accesses) on every layer of a result. Returns the first violation as
/// "layer: what", empty when all hold.
[[nodiscard]] std::string check_metric_identities(const sim::SystemResult& r);

/// Checks the model-side properties (Eqs. 4/7/12/13 agreement, Eq. 14/15
/// threshold structure, Fig. 3 granularity stability) on one core's
/// measurement. Returns the first violation, empty when all hold.
[[nodiscard]] std::string check_model_properties(const core::AppMeasurement& m);

/// Checks the analytic-backend properties on one (machine, workload) pair:
/// the "rdh" and "fa" evaluations must synthesize counters that satisfy the
/// Eq. 2/3 identities exactly (check_metric_identities), and the underlying
/// closed-form miss curves must be monotone — misses (demand and fills)
/// never increase when the cache grows, and fills never exceed demand.
/// Returns the first violation, empty when all hold.
[[nodiscard]] std::string check_analytic_properties(
    const sim::MachineConfig& machine, const trace::WorkloadProfile& wl);

class Fuzzer {
 public:
  explicit Fuzzer(FuzzConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// Deterministically generates case `case_seed` (machine + traces); the
  /// same seed always yields the same ReplayCase, independent of cfg.
  [[nodiscard]] ReplayCase generate(std::uint64_t case_seed) const;

  /// Runs cfg.cases cases (seeds cfg.seed .. cfg.seed + cases - 1).
  [[nodiscard]] FuzzSummary run();

  [[nodiscard]] const FuzzConfig& config() const { return cfg_; }

 private:
  FuzzConfig cfg_;
};

}  // namespace lpm::check
