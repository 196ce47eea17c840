// Pins the analytic backends' fidelity envelope. The harness sweeps the
// full 16-profile x 3-L1-size x {rdh, fa} grid at the default trace length
// and the bounds below pin the measured error distribution with headroom:
// a retune of the analytic heuristics that degrades screening fidelity
// fails here instead of drifting silently. The exact aggregate constants
// are the ones published in EXPERIMENTS.md §"Multi-fidelity exploration" —
// this test regenerates them, so the documented table cannot rot.
#include "check/fidelity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/experiment_engine.hpp"

namespace lpm::check {
namespace {

TEST(RelativeError, FloorsNearZeroDenominators) {
  EXPECT_DOUBLE_EQ(relative_error(2.0, 1.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(relative_error(1.0, 2.0, 0.01), 0.5);
  // A tiny measured value is floored: a 1e-4-vs-2e-4 MR disagreement is
  // noise, not a 100% error.
  EXPECT_DOUBLE_EQ(relative_error(2e-4, 1e-4, kMrErrorFloor), 0.01);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0, kMrErrorFloor), 0.0);
}

class FidelityHarnessTest : public ::testing::Test {
 protected:
  // One sweep shared by every assertion: the harness is the expensive part
  // (48 cycle simulations + 96 analytic evaluations).
  static const FidelityReport& report() {
    static const FidelityReport r = [] {
      exp::ExperimentEngine engine(
          exp::ExperimentEngine::Options{.threads = 4});
      FidelityConfig cfg;
      cfg.engine = &engine;
      return run_fidelity_harness(cfg);
    }();
    return r;
  }
};

TEST_F(FidelityHarnessTest, CoversTheFullGrid) {
  const auto& r = report();
  // 16 profiles x 3 L1 sizes x 2 analytic backends.
  ASSERT_EQ(r.points.size(), 96u);
  ASSERT_EQ(r.profiles.size(), 32u);
  for (const auto& p : r.points) {
    EXPECT_TRUE(p.backend == "rdh" || p.backend == "fa") << p.benchmark;
    EXPECT_GT(p.mr1_cycle, 0.0) << p.benchmark;
    EXPECT_GT(p.camat1_cycle, 0.0) << p.benchmark;
    EXPECT_TRUE(std::isfinite(p.mr1_rel_error)) << p.benchmark;
    EXPECT_TRUE(std::isfinite(p.camat1_rel_error)) << p.benchmark;
  }
}

TEST_F(FidelityHarnessTest, ErrorBoundsHold) {
  const auto& r = report();
  // Measured at the defaults (trace_length 20000, seed 1): worst MR1 error
  // 1.49, p50 0.14; worst C-AMAT1 error 0.39, p50 0.17. Pinned with
  // headroom so trace-generator tweaks don't flap the suite, but tight
  // enough that a real fidelity regression (a worst-case doubling, a
  // median drift past ~2x) fails.
  EXPECT_LT(r.worst_mr1_rel_error, 2.0);
  EXPECT_LT(r.p90_mr1_rel_error, 1.3);
  EXPECT_LT(r.p50_mr1_rel_error, 0.30);
  EXPECT_LT(r.worst_camat1_rel_error, 0.60);
  EXPECT_LT(r.p90_camat1_rel_error, 0.55);
  EXPECT_LT(r.p50_camat1_rel_error, 0.30);
}

TEST_F(FidelityHarnessTest, MatchesThePublishedAggregates) {
  const auto& r = report();
  // The EXPERIMENTS.md error table is generated from exactly this run
  // (deterministic in every input), so the aggregates must reproduce to
  // rounding. Update both together when the model is retuned.
  EXPECT_NEAR(r.p50_mr1_rel_error, 0.1421, 5e-4);
  EXPECT_NEAR(r.p90_mr1_rel_error, 0.9692, 5e-4);
  EXPECT_NEAR(r.worst_mr1_rel_error, 1.4867, 5e-4);
  EXPECT_NEAR(r.p50_camat1_rel_error, 0.1718, 5e-4);
  EXPECT_NEAR(r.p90_camat1_rel_error, 0.3785, 5e-4);
  EXPECT_NEAR(r.worst_camat1_rel_error, 0.3912, 5e-4);
}

TEST_F(FidelityHarnessTest, ReportSerializesBothWays) {
  const auto& r = report();
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"worst_mr1_rel_error\""), std::string::npos);
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  EXPECT_NE(json.find("403.gcc"), std::string::npos);

  const std::string table = r.table();
  EXPECT_NE(table.find("403.gcc"), std::string::npos);
  EXPECT_NE(table.find("rdh"), std::string::npos);
  EXPECT_NE(table.find("fa"), std::string::npos);
}

}  // namespace
}  // namespace lpm::check
