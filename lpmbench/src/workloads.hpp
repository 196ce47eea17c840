// The benchmark's three workloads, each a closed loop of design questions
// answered through one benchmark-owned exp::ExperimentEngine:
//
//   walk   — the Fig. 3 LPM walk of Case Study I (cycle backend, memo cache);
//   nuca   — Case Study II: profile 16 recorded traces over four L1 sizes,
//            then co-run four schedulers' placements on the 16-core CMP;
//   screen — screen-then-confirm sweeps of a cache-side grid with the "rdh"
//            analytic backend, the top candidate confirmed cycle-accurately.
//
// One call runs one repetition: it sets up a fresh engine (so the memo cache
// starts cold) and fresh inputs (workload names carry the repetition, so the
// analytic profile cache starts cold too), answers the workload's question,
// and returns the answer with its timings and counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "composition.hpp"
#include "spans.hpp"

namespace lpmbench {

struct BenchConfig {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned threads = 4;
  std::string workdir;  ///< where recorded traces live while a repetition runs
};

/// What a repetition does besides its timed answer. The extra work runs
/// after the answer, while the repetition's engine still holds the results.
struct Extras {
  bool setup_only = false;          ///< stop after set-up (a set-up trial)
  bool accuracy = false;            ///< compute the analytic-vs-cycle MR1 error
  LayerTimes* replay = nullptr;     ///< re-simulate cycle points on the composition
  std::size_t replay_limit = 0;     ///< at most this many points, evenly spaced
};

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak when the timed part ended
  std::vector<double> point_ms;  ///< the experiment points the answer waited on
  double cycle_instructions = 0.0;  ///< executed cycle-accurate jobs
  double cycle_busy_s = 0.0;
  std::map<std::string, std::string> answers;  ///< checked against a stored seed's
  std::map<std::string, bool> checks;  ///< properties that must hold on every seed

  // Engine, over the timed part.
  std::uint64_t jobs = 0;  ///< submissions, cache-served ones included
  std::uint64_t sims_executed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t retries = 0;
  double busy_s = 0.0;
  unsigned threads = 0;

  // core: the LPM walk.
  std::uint64_t steps = 0;
  std::uint64_t configs_simulated = 0;  ///< distinct, executed simulations
  std::uint64_t on_path_configs = 0;    ///< distinct configurations measured

  // model: analytic profile cache activity over the timed part.
  std::uint64_t profile_builds = 0;
  std::uint64_t calibration_runs = 0;

  // trace: LPM2 recording during set-up.
  double record_s = 0.0;

  // Extras.
  std::vector<double> mr1_rel_err;
  std::uint64_t replayed = 0;
  std::uint64_t replay_mismatches = 0;
};

[[nodiscard]] Rep run_rep(const BenchConfig& cfg, int rep, SpanLog* spans,
                          const Extras& extras);

/// Routes the "rdh" backend through a decorator that times each evaluation
/// in worker CPU time (screen's points) and, while `spans` is enabled,
/// records spans around model::ProfileCache::reuse/calibration and
/// model::evaluate_analytic.
void install_rdh_executor(SpanLog* spans);

[[nodiscard]] bool known_workload(const std::string& name);

}  // namespace lpmbench
