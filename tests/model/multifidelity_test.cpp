// The multi-fidelity contract: screening never changes the answer.
//
// run_lpm_walk_screened must land on the same final configuration as a
// cycle-only walk of the same space, for every one of the 16 SPEC-analogue
// profiles, and counts itself once in lpm.two_stage_walks;
// screen_then_confirm_sweep must rank with the analytic backend but decide
// with the cycle backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/design_space.hpp"
#include "core/lpm_algorithm.hpp"
#include "exp/experiment_engine.hpp"
#include "lpm.hpp"
#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm {
namespace {

TEST(ScreenedWalk, CountsOneTwoStageWalkPerCall) {
  // lpm.two_stage_walks counts the screened walks lpmd and the facade run.
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options{.threads = 1});
  core::LpmAlgorithmConfig cfg;
  cfg.delta_percent = core::kCoarseGrainedDelta;
  const auto walks = [] {
    return obs::MetricsRegistry::global().snapshot().counter_or_zero(
        "lpm.two_stage_walks");
  };
  const std::uint64_t before = walks();
  (void)lpm::run_lpm_walk_screened(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kBzip2, 2000, 3),
      core::KnobLevels::standard(), core::ArchKnobs{}, cfg,
      model::kRdhBackend, &engine);
  EXPECT_EQ(walks(), before + 1);
}

TEST(ScreenedWalk, RejectsCycleAsScreenBackend) {
  const auto base = sim::MachineConfig::single_core_default();
  const auto wl = trace::spec_profile(trace::SpecBenchmark::kBzip2, 2000, 3);
  EXPECT_THROW((void)lpm::run_lpm_walk_screened(
                   base, wl, core::KnobLevels::standard(), core::ArchKnobs{},
                   {}, exp::kCycleBackend),
               util::LpmError);
  EXPECT_THROW((void)lpm::run_lpm_walk_screened(
                   base, wl, core::KnobLevels::standard(), core::ArchKnobs{},
                   {}, "mystery"),
               util::ConfigError);
}

// The acceptance property of the whole seam: on every SPEC-analogue
// profile, the screened walk's final configuration equals what a cycle-only
// walk picks — screening only warms caches and narrows the frontier, it
// never steers.
TEST(ScreenedWalk, MatchesCycleOnlyFinalConfigOnAllProfiles) {
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options{.threads = 4});

  const auto base = sim::MachineConfig::single_core_default();
  const auto levels = core::KnobLevels::standard();
  const core::ArchKnobs start;

  core::LpmAlgorithmConfig cfg;
  cfg.delta_percent = core::kCoarseGrainedDelta;

  for (const auto bench : trace::all_spec_benchmarks()) {
    const auto wl = trace::spec_profile(bench, 5000, 3);
    const auto screened = lpm::run_lpm_walk_screened(
        base, wl, levels, start, cfg, model::kRdhBackend, &engine);

    core::DesignSpaceExplorer cycle_only(base, wl, levels, start,
                                         cfg.delta_percent, &engine);
    const auto cycle_outcome = lpm::run_lpm_walk(cycle_only, cfg);

    EXPECT_EQ(screened.final_config, cycle_only.current())
        << trace::spec_name(bench) << ": screened walk picked "
        << screened.final_config.label() << ", cycle-only picked "
        << cycle_only.current().label();
    EXPECT_EQ(screened.confirm.converged, cycle_outcome.converged)
        << trace::spec_name(bench);
    EXPECT_GT(screened.screen_configs, 0u) << trace::spec_name(bench);
    EXPECT_GT(screened.confirm_configs, 0u) << trace::spec_name(bench);
  }
}

TEST(ScreenedSweep, RanksAnalyticallyDecidesCycleAccurately) {
  exp::ExperimentEngine engine(exp::ExperimentEngine::Options{.threads = 4});
  const auto base = sim::MachineConfig::single_core_default();
  const auto wl = trace::spec_profile(trace::SpecBenchmark::kBwaves, 5000, 3);

  const std::vector<core::ArchKnobs> candidates = {
      core::ArchKnobs::config_a(), core::ArchKnobs::config_b(),
      core::ArchKnobs::config_c(), core::ArchKnobs::config_d(),
      core::ArchKnobs::config_e()};

  core::SweepOptions opts;
  opts.engine = &engine;
  opts.confirm_top_k = 3;
  const auto sweep = core::screen_then_confirm_sweep(base, wl, candidates, opts);

  ASSERT_EQ(sweep.screened.size(), candidates.size());
  ASSERT_EQ(sweep.confirmed.size(), opts.confirm_top_k);
  EXPECT_EQ(sweep.analytic_evals, candidates.size());
  EXPECT_EQ(sweep.cycle_evals, opts.confirm_top_k);
  for (const auto& r : sweep.screened) EXPECT_EQ(r.backend, model::kRdhBackend);
  for (const auto& r : sweep.confirmed) EXPECT_EQ(r.backend, exp::kCycleBackend);
  EXPECT_EQ(sweep.best, sweep.confirmed.front().knobs);

  // Every confirmed config survived the screen.
  for (const auto& c : sweep.confirmed) {
    bool found = false;
    for (std::size_t i = 0; i < opts.confirm_top_k; ++i) {
      found = found || sweep.screened[i].knobs == c.knobs;
    }
    EXPECT_TRUE(found) << c.knobs.label() << " was not in the screened frontier";
  }

  EXPECT_THROW((void)core::screen_then_confirm_sweep(base, wl, {}, opts),
               util::ConfigError);
}

}  // namespace
}  // namespace lpm
