#include "core/design_space.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "exp/experiment_engine.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm::core {

// Readable gtest failure output for knob sets and the visited() vectors.
void PrintTo(const ArchKnobs& k, std::ostream* os) { *os << k.label(); }

namespace {

trace::WorkloadProfile bwaves(std::uint64_t length = 150000) {
  // Long enough to pass the cold-start sweep and reach the L2-resident
  // steady state where the Table-I knobs matter.
  return trace::spec_profile(trace::SpecBenchmark::kBwaves, length, 17);
}

TEST(ArchKnobs, TableIColumnsMatchPaper) {
  const auto a = ArchKnobs::config_a();
  EXPECT_EQ(a.issue_width, 4u);
  EXPECT_EQ(a.iw_size, 32u);
  EXPECT_EQ(a.rob_size, 32u);
  EXPECT_EQ(a.l1_ports, 1u);
  EXPECT_EQ(a.mshr_entries, 4u);
  EXPECT_EQ(a.l2_interleave, 4u);
  const auto e = ArchKnobs::config_e();
  EXPECT_EQ(e.issue_width, 8u);
  EXPECT_EQ(e.iw_size, 96u);
  EXPECT_EQ(e.rob_size, 96u);
  EXPECT_EQ(e.l1_ports, 4u);
}

TEST(ArchKnobs, ApplySetsAllSixKnobs) {
  const auto base = sim::MachineConfig::single_core_default();
  const auto m = ArchKnobs::config_d().apply(base);
  EXPECT_EQ(m.core.issue_width, 8u);
  EXPECT_EQ(m.core.rob_size, 128u);
  EXPECT_EQ(m.core.iw_size, 128u);
  EXPECT_EQ(m.l1.ports, 4u);
  EXPECT_EQ(m.l1.mshr_entries, 16u);
  EXPECT_EQ(m.l2.banks, 8u);
  EXPECT_NO_THROW(m.validate());
}

TEST(ArchKnobs, CostOrderingMatchesParallelism) {
  EXPECT_LT(ArchKnobs::config_a().hardware_cost(),
            ArchKnobs::config_b().hardware_cost());
  EXPECT_LT(ArchKnobs::config_b().hardware_cost(),
            ArchKnobs::config_c().hardware_cost());
  EXPECT_LT(ArchKnobs::config_c().hardware_cost(),
            ArchKnobs::config_d().hardware_cost());
  // E is the trimmed D.
  EXPECT_LT(ArchKnobs::config_e().hardware_cost(),
            ArchKnobs::config_d().hardware_cost());
}

TEST(KnobLevels, SpaceIsAMillion) {
  const auto levels = KnobLevels::standard();
  EXPECT_EQ(levels.space_size(), 1000000u);
}

TEST(KnobLevels, TableIValuesAreReachable) {
  const auto levels = KnobLevels::standard();
  for (const auto k : {ArchKnobs::config_a(), ArchKnobs::config_b(),
                       ArchKnobs::config_c(), ArchKnobs::config_d(),
                       ArchKnobs::config_e()}) {
    const auto in = [](const std::vector<std::uint32_t>& v, std::uint32_t x) {
      return std::find(v.begin(), v.end(), x) != v.end();
    };
    EXPECT_TRUE(in(levels.issue_width, k.issue_width));
    EXPECT_TRUE(in(levels.iw_size, k.iw_size));
    EXPECT_TRUE(in(levels.rob_size, k.rob_size));
    EXPECT_TRUE(in(levels.l1_ports, k.l1_ports));
    EXPECT_TRUE(in(levels.mshr_entries, k.mshr_entries));
    EXPECT_TRUE(in(levels.l2_interleave, k.l2_interleave));
  }
}

TEST(DesignSpaceExplorer, MeasureIsMemoized) {
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), ArchKnobs::config_a());
  (void)ex.measure();
  EXPECT_EQ(ex.configs_evaluated(), 1u);
  (void)ex.measure();  // same config: no new simulation
  EXPECT_EQ(ex.configs_evaluated(), 1u);
}

TEST(DesignSpaceExplorer, OptimizeL1ChangesExactlyOneDiagnosis) {
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), ArchKnobs::config_a());
  const ArchKnobs before = ex.current();
  ASSERT_TRUE(ex.optimize_l1());
  const ArchKnobs after = ex.current();
  EXPECT_NE(before, after);
  EXPECT_GE(ex.reconfigurations(), 1u);
  EXPECT_EQ(ex.reconfiguration_cost_cycles(), ex.reconfigurations() * 4);
}

TEST(DesignSpaceExplorer, OptimizeL2StepsInterleaving) {
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), ArchKnobs::config_a());
  ASSERT_TRUE(ex.optimize_l2());
  EXPECT_EQ(ex.current().l2_interleave, 8u);
}

TEST(DesignSpaceExplorer, OptimizeL2SaturatesAtMax) {
  auto start = ArchKnobs::config_a();
  start.l2_interleave = 512;  // top level
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), start);
  EXPECT_FALSE(ex.optimize_l2());
}

TEST(DesignSpaceExplorer, MoreParallelismLowersLpmr1) {
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), ArchKnobs::config_a());
  const double weak = ex.evaluate(ArchKnobs::config_a()).l1.camat();
  const double strong = ex.evaluate(ArchKnobs::config_d()).l1.camat();
  EXPECT_LT(strong, weak);

  const auto lpmr_a =
      compute_lpmrs(ex.evaluate(ArchKnobs::config_a()));
  const auto lpmr_d =
      compute_lpmrs(ex.evaluate(ArchKnobs::config_d()));
  EXPECT_LT(lpmr_d.lpmr1, lpmr_a.lpmr1);
}

TEST(DesignSpaceExplorer, AlgorithmDrivesLpmr1Down) {
  DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(), bwaves(),
                         KnobLevels::standard(), ArchKnobs::config_a(),
                         kCoarseGrainedDelta);
  LpmAlgorithmConfig acfg;
  acfg.delta_percent = kCoarseGrainedDelta;
  acfg.max_iterations = 24;
  acfg.trim_overprovision = false;
  const LpmAlgorithm alg(acfg);
  const LpmOutcome out = alg.run(ex);
  ASSERT_FALSE(out.steps.empty());
  const double first = out.steps.front().observation.lpmr.lpmr1;
  const double last = out.final_observation.lpmr.lpmr1;
  const double first_stall = out.steps.front().observation.stall_per_instr;
  const double last_stall = out.final_observation.stall_per_instr;
  EXPECT_LT(last_stall, first_stall);
  EXPECT_LT(last, first * 1.05);
}

TEST(DesignSpaceExplorer, WalkIsIndependentOfTheThreadCount) {
  // The Fig. 3 walk's batches (prefetch hints, over-provision trims) have
  // contents fixed by the walk alone, so a pooled engine must reproduce the
  // serial walk exactly: decisions, trajectory and simulated set.
  const auto walk = [](unsigned threads) {
    exp::ExperimentEngine engine(
        exp::ExperimentEngine::Options{.threads = threads});
    DesignSpaceExplorer ex(sim::MachineConfig::single_core_default(),
                           bwaves(60000), KnobLevels::standard(),
                           ArchKnobs::config_a(), kCoarseGrainedDelta, &engine);
    LpmAlgorithmConfig acfg;
    acfg.delta_percent = kCoarseGrainedDelta;
    acfg.max_iterations = 24;
    const LpmOutcome outcome = LpmAlgorithm(acfg).run(ex);
    return std::make_tuple(outcome, ex.current(), ex.visited(),
                           ex.configs_evaluated());
  };
  const auto [serial, serial_final, serial_visited, serial_configs] = walk(1);
  const auto [pooled, pooled_final, pooled_visited, pooled_configs] = walk(4);

  ASSERT_GT(serial.steps.size(), 1u);
  EXPECT_EQ(pooled_final, serial_final);
  EXPECT_EQ(pooled.converged, serial.converged);
  ASSERT_EQ(pooled.steps.size(), serial.steps.size());
  for (std::size_t i = 0; i < serial.steps.size(); ++i) {
    EXPECT_EQ(pooled.steps[i].action, serial.steps[i].action) << "step " << i;
    EXPECT_EQ(pooled.steps[i].applied, serial.steps[i].applied) << "step " << i;
    EXPECT_EQ(pooled.steps[i].observation.config_label,
              serial.steps[i].observation.config_label)
        << "step " << i;
    EXPECT_EQ(pooled.steps[i].observation.lpmr.lpmr1,
              serial.steps[i].observation.lpmr.lpmr1)
        << "step " << i;
  }
  EXPECT_EQ(pooled_visited, serial_visited);
  EXPECT_EQ(pooled_configs, serial_configs);
}

TEST(DesignSpaceExplorer, RejectsMultiCoreBase) {
  auto base = sim::MachineConfig::nuca16();
  EXPECT_THROW(DesignSpaceExplorer(base, bwaves(), KnobLevels::standard(),
                                   ArchKnobs::config_a()),
               util::LpmError);
}

}  // namespace
}  // namespace lpm::core
