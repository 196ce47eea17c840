// The multi-fidelity contract: screening never changes the answer.
//
// run_two_stage's confirm walk decides from its own measurements only, so
// its outcome must be bit-identical to running the confirm tunable alone;
// run_lpm_walk_screened must land on the same final configuration as a
// cycle-only walk of the same space, for every one of the 16 SPEC-analogue
// profiles; and screen_then_confirm_sweep must rank with the analytic
// backend but decide with the cycle backend.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "core/lpm_algorithm.hpp"
#include "exp/experiment_engine.hpp"
#include "lpm.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm {
namespace {

/// A deterministic toy tunable: LPMR1 walks down a fixed ladder, one rung
/// per optimize_l1(). Lets the two-stage test compare walks structurally.
class LadderTunable final : public core::LpmTunable {
 public:
  explicit LadderTunable(std::vector<double> ladder)
      : ladder_(std::move(ladder)) {}

  core::LpmObservation measure() override {
    core::LpmObservation obs;
    obs.lpmr.lpmr1 = ladder_[idx_];
    obs.lpmr.lpmr2 = 1.0;
    obs.lpmr.lpmr3 = 1.0;
    obs.t1 = 2.0;
    obs.t2 = 2.0;
    obs.config_label = "rung-" + std::to_string(idx_);
    return obs;
  }
  bool optimize_l1() override {
    if (idx_ + 1 >= ladder_.size()) return false;
    ++idx_;
    return true;
  }
  bool optimize_l2() override { return false; }
  bool reduce_overprovision() override { return false; }

  [[nodiscard]] std::size_t rung() const { return idx_; }

 private:
  std::vector<double> ladder_;
  std::size_t idx_ = 0;
};

TEST(TwoStageWalk, ConfirmOutcomeIsIndependentOfScreen) {
  const std::vector<double> confirm_ladder = {5.0, 3.2, 1.4};
  // A deliberately different (and differently-sized) screening ladder: the
  // screen stage must not leak into the confirm decisions.
  LadderTunable screen({9.0, 6.0, 4.0, 2.5, 1.1});
  LadderTunable confirm(confirm_ladder);

  core::LpmAlgorithmConfig cfg;
  const core::LpmAlgorithm algorithm(cfg);
  const auto two_stage = algorithm.run_two_stage(screen, confirm);

  LadderTunable solo(confirm_ladder);
  const auto solo_outcome = algorithm.run(solo);

  EXPECT_TRUE(two_stage.screen.converged);
  EXPECT_TRUE(two_stage.confirm.converged);
  ASSERT_EQ(two_stage.confirm.steps.size(), solo_outcome.steps.size());
  for (std::size_t i = 0; i < solo_outcome.steps.size(); ++i) {
    EXPECT_EQ(two_stage.confirm.steps[i].action, solo_outcome.steps[i].action);
    EXPECT_DOUBLE_EQ(two_stage.confirm.steps[i].observation.lpmr.lpmr1,
                     solo_outcome.steps[i].observation.lpmr.lpmr1);
  }
  EXPECT_EQ(confirm.rung(), solo.rung());
  EXPECT_DOUBLE_EQ(two_stage.confirm.final_observation.lpmr.lpmr1,
                   solo_outcome.final_observation.lpmr.lpmr1);
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
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options::builder().threads(4).build());

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
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options::builder().threads(4).build());
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
