// The perf-regression harness behind BENCH_simulator.json.
//
// Three throughput numbers summarize the simulator (see EXPERIMENTS.md
// "Performance tracking"):
//
//   * sim_cycles_per_sec    — simulated cycles per wall-clock second of a
//     serial System::run over the bench_lpm_convergence workload
//     (410.bwaves on the default machine plus L1 variants — the same mix
//     the LPM walk evaluates). The repo's core scaling metric: every LPMR
//     evaluation re-runs this loop.
//   * instructions_per_sec  — committed instructions per second of the
//     same runs.
//   * engine_jobs_per_sec   — distinct jobs per second through an
//     ExperimentEngine worker pool under a *saturating sweep*: many
//     near-zero-cost jobs (a registered null backend) submitted from
//     several threads at once, so the number measures the engine itself —
//     queue handoff, dispatch, dedup, ordered outcome reassembly — not the
//     simulator. This is the submit-side-contention gate for the lock-free
//     MPMC job ring (see DESIGN.md §7); before the ring landed, the same
//     sweep through the mutex+condvar queue is the "locked baseline"
//     recorded in EXPERIMENTS.md.
//   * analytic_configs_per_sec — distinct machine configurations per second
//     through the "rdh" analytic backend after its one-off profiling pass,
//     i.e. the screening rate of a multi-fidelity sweep. The headline claim
//     this gate protects: analytic screening stays orders of magnitude
//     faster than cycle simulation.
//   * trace_cold_ops_per_sec / trace_warm_ops_per_sec — recorded-trace
//     ingestion rate through the LPM2 reader (src/trace/lpm2.hpp): cold is
//     a full drain after evicting the file from the page cache, warm a
//     drain of the now-hot file. Record-once/replay-many is only a win
//     while replay stays far above the simulator's op consumption rate;
//     these gates keep it that way.
//
// run_perf_suite() measures, to_json()/parse_report() round-trip the flat
// JSON report, and check_against_baseline() implements the CI gate: a
// metric regresses when it falls below baseline * (1 - tolerance). Faster
// is never a failure — baselines are raised intentionally (see
// EXPERIMENTS.md), not by CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lpm::perf {

/// Backend name the saturating sweep registers: a constant-result executor
/// whose cost is a function call, so engine_jobs_per_sec isolates the
/// engine's own per-job overhead. Registered process-wide on first use of
/// run_perf_suite; harmless to other phases (nothing else submits it).
inline constexpr const char* kNullBackend = "perf-null";

struct PerfOptions {
  /// Micro-ops per workload replay. The default matches
  /// bench_lpm_convergence's trace length; tests shrink it.
  std::uint64_t length = 400'000;
  /// Simulated machine variants in the System::run phase (>= 1).
  unsigned sim_configs = 3;
  /// Distinct jobs in the engine saturating-sweep phase (>= 1). Each is
  /// near-free to execute, so the phase times queue + dispatch + outcome
  /// bookkeeping per job.
  unsigned engine_jobs = 8192;
  /// Concurrent submitter threads in the saturating sweep (>= 1); each
  /// submits an equal slice of `engine_jobs` as its own batch.
  unsigned engine_submitters = 4;
  /// Worker threads for the engine phases. 0 = max(hardware, 4): the
  /// sweep must exercise a real pool (and real contention) even on a
  /// single-core CI runner.
  unsigned engine_threads = 0;
  /// Distinct configurations in the analytic-screening phase.
  unsigned analytic_configs = 64;
  /// Micro-ops in the trace-ingestion phase (0 disables the phase). When
  /// `trace_file` is empty the phase records this many ops of the bench
  /// workload to a temporary LPM2 file first.
  std::uint64_t trace_ops = 2'000'000;
  /// Pre-recorded trace to ingest instead of recording a temporary one
  /// (the CI smoke job points this at an lpm_trace-recorded profile).
  std::string trace_file;
};

struct PerfReport {
  std::string bench = "lpm_convergence";
  std::uint64_t cycles = 0;        ///< simulated cycles, System::run phase
  std::uint64_t instructions = 0;  ///< committed instructions, same phase
  std::uint64_t jobs = 0;          ///< jobs executed, engine phase
  std::uint64_t analytic_configs = 0;  ///< configs evaluated, analytic phase
  std::uint64_t trace_ops = 0;  ///< ops ingested per pass, trace phase
  double wall_seconds_simulate = 0.0;
  double wall_seconds_engine = 0.0;
  double wall_seconds_analytic = 0.0;
  double wall_seconds_trace_cold = 0.0;
  double wall_seconds_trace_warm = 0.0;
  double sim_cycles_per_sec = 0.0;
  double instructions_per_sec = 0.0;
  double engine_jobs_per_sec = 0.0;
  double analytic_configs_per_sec = 0.0;
  /// Cold pass: pages evicted (posix_fadvise DONTNEED) before the drain.
  double trace_cold_ops_per_sec = 0.0;
  /// Warm pass: a fresh reader over the same file, page cache hot.
  double trace_warm_ops_per_sec = 0.0;
};

/// Runs both measurement phases. Deterministic in its simulated work;
/// wall-clock numbers are machine-dependent by nature.
[[nodiscard]] PerfReport run_perf_suite(const PerfOptions& opts = {});

/// The flat-JSON BENCH_simulator.json encoding of a report.
[[nodiscard]] std::string to_json(const PerfReport& report);

/// Inverse of to_json (also reads committed baselines). Throws
/// util::LpmError on malformed input or missing required keys.
[[nodiscard]] PerfReport parse_report(const std::string& json_text);

/// Reads and parses a report/baseline file. Throws util::IoError /
/// util::LpmError.
[[nodiscard]] PerfReport load_report(const std::string& path);

struct BaselineCheck {
  bool ok = true;
  /// One human-readable line per regressed metric.
  std::vector<std::string> failures;
};

/// Compares the throughput metrics against a baseline: metric m fails when
/// m < baseline.m * (1 - tolerance). tolerance 0.30 absorbs CI-runner
/// noise; exceeding the baseline never fails. analytic_configs_per_sec is
/// gated only when the baseline carries it (> 0), so baselines written
/// before the analytic phase keep working.
[[nodiscard]] BaselineCheck check_against_baseline(const PerfReport& current,
                                                   const PerfReport& baseline,
                                                   double tolerance);

}  // namespace lpm::perf
