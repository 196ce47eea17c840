// The rdh kernel's two passes against the general weighted loop.
//
// rdh_misses runs a fills-only pass and a demand-only pass over the packed
// buckets. The demand pass weighs a bucket's followers as
// cum[k-1] + frac * (cum[k] - cum[k-1]) from class-order cumulative counts,
// where the general loop sums frac[c] * followers[c] over every class. The
// two agree to the last bit only while burst_fractions(w) is 1 below one
// class k, anything in [0, 1] on k and +0 above it, so that shape is
// checked on its own. The reference here is the general loop over the
// profile's dense per-class arrays, with its own miss-probability table.
// A pooled engine must also return exactly what the serial one does: its
// workers share the miss-table and profile caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rdh_reference.hpp"
#include "exp/experiment_engine.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "sim/machine_config.hpp"
#include "trace/spec_like.hpp"

namespace lpm::model {
namespace {

using test::fractions;
using test::kMissSaturated;
using test::miss_prob;

/// lpmbench `screen`'s cache geometries: L1 size and ways, L2 size.
struct ScreenGeometry {
  std::uint64_t l1_bytes;
  std::uint32_t l1_ways;
  std::uint64_t l2_bytes;
};
constexpr std::array<ScreenGeometry, 5> kScreenGeometries = {{
    {16 * 1024, 2, 512 * 1024},
    {16 * 1024, 8, 2048 * 1024},
    {32 * 1024, 4, 1024 * 1024},
    {64 * 1024, 2, 2048 * 1024},
    {64 * 1024, 8, 512 * 1024},
}};

sim::MachineConfig screen_machine(const ScreenGeometry& g) {
  sim::MachineConfig m = sim::MachineConfig::single_core_default();
  m.l1.size_bytes = g.l1_bytes;
  m.l1.associativity = g.l1_ways;
  m.l2.size_bytes = g.l2_bytes;
  return m;
}

struct SetsWays {
  std::uint64_t sets;
  std::uint32_t ways;
  bool operator==(const SetsWays&) const = default;
};

/// Every (sets, ways) an evaluation of screen's geometries or of
/// perf_simulator's analytic phase (L1 4K .. 512K) looks up.
std::vector<SetsWays> kernel_geometries() {
  std::vector<SetsWays> out;
  auto add = [&out](const mem::CacheConfig& c) {
    const SetsWays g{c.num_sets(), c.associativity};
    if (std::find(out.begin(), out.end(), g) == out.end()) out.push_back(g);
  };
  for (const ScreenGeometry& g : kScreenGeometries) {
    const sim::MachineConfig m = screen_machine(g);
    add(m.l1);
    add(m.l2);
  }
  for (unsigned i = 0; i < 8; ++i) {
    sim::MachineConfig m = sim::MachineConfig::single_core_default();
    m.l1.size_bytes = (4u * 1024u) << i;
    add(m.l1);
  }
  return out;
}

/// The general weighted loop: the bucket pass before the cumulative
/// counts, reading per-class follower counts from the dense arrays.
MissEstimate general_rdh(const ReuseProfile& p, std::uint64_t sets,
                         std::uint32_t assoc, double alpha, double window) {
  constexpr double kConflictDamp = 0.5;
  const std::vector<double>& pmiss = miss_prob(sets, assoc);
  const auto frac = fractions(window);
  const std::uint64_t capacity = sets * static_cast<std::uint64_t>(assoc);

  MissEstimate e;
  double foll_cold = 0.0;
  double foll_cold_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    foll_cold += frac[cl] * static_cast<double>(p.cold_followers[cl]);
    foll_cold_cov +=
        frac[cl] * static_cast<double>(p.cold_followers_covered[cl]);
  }
  e.fills = static_cast<double>(p.cold) -
            alpha * static_cast<double>(p.cold_covered);
  e.demand = static_cast<double>(p.cold) + foll_cold -
             alpha * (static_cast<double>(p.cold_covered) + foll_cold_cov);

  std::size_t saturated = 0;
  while (saturated < p.distance_end && pmiss[saturated] < kMissSaturated) {
    ++saturated;
  }
  for (std::size_t d = 0; d < saturated; ++d) {
    if (p.hist[d] == 0) continue;
    double f = 0.0, f_cov = 0.0;
    for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
      f += frac[cl] * static_cast<double>(p.followers[cl][d]);
      f_cov += frac[cl] * static_cast<double>(p.followers_covered[cl][d]);
    }
    const double h = static_cast<double>(p.hist[d]);
    const double h_cov = static_cast<double>(p.covered[d]);
    const double pm_eff = d < capacity ? kConflictDamp * pmiss[d] : pmiss[d];
    e.fills += pm_eff * (h - alpha * h_cov);
    e.demand += pm_eff * (h + f - alpha * (h_cov + f_cov));
  }
  double f = 0.0, f_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    f += frac[cl] * static_cast<double>(p.suffix_followers[cl][saturated]);
    f_cov += frac[cl] *
             static_cast<double>(p.suffix_followers_covered[cl][saturated]);
  }
  const double s = static_cast<double>(p.suffix[saturated]);
  const double s_cov = static_cast<double>(p.suffix_covered[saturated]);
  e.fills += s - alpha * s_cov;
  e.demand += s + f - alpha * (s_cov + f_cov);
  e.fills = std::max(0.0, e.fills);
  e.demand = std::max(0.0, e.demand);
  return e;
}

TEST(RdhKernel, BurstFractionsAreAOneFracZeroStep) {
  std::vector<double> windows;
  for (int q = 4; q <= 4 * 256; ++q) windows.push_back(q / 4.0);
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    for (const std::uint64_t bound :
         {ReuseProfile::kBurstClassLo[c], ReuseProfile::kBurstClassHi[c]}) {
      const double b = static_cast<double>(bound);
      if (b < 1.0) continue;
      windows.push_back(b);
      windows.push_back(std::nextafter(b, 0.0));
      windows.push_back(
          std::nextafter(b, std::numeric_limits<double>::infinity()));
    }
  }
  for (const double w : windows) {
    if (w < 1.0 || w > 256.0) continue;
    const auto f = burst_fractions(w);
    EXPECT_EQ(f, fractions(w)) << "w=" << w;
    std::size_t k = 0;
    while (k + 1 < f.size() && f[k] == 1.0) ++k;
    EXPECT_GE(f[k], 0.0) << "w=" << w;
    EXPECT_LE(f[k], 1.0) << "w=" << w;
    for (std::size_t c = k + 1; c < f.size(); ++c) {
      EXPECT_EQ(f[c], 0.0) << "w=" << w << " class=" << c;
      EXPECT_FALSE(std::signbit(f[c])) << "w=" << w << " class=" << c;
    }
  }
}

TEST(RdhKernel, MatchesTheGeneralWeightedLoopBitForBit) {
  const std::vector<SetsWays> geometries = kernel_geometries();
  const std::array<double, 10> windows = {
      1.0, 2.5, 4.0, std::nextafter(4.0, 5.0), 10.0, 16.0, 40.0, 64.0,
      100.0, 256.0};
  const std::array<double, 3> alphas = {0.0, 0.3, 0.85};
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (const std::uint64_t length : {20000u, 100000u}) {
    for (const auto b : trace::all_spec_benchmarks()) {
      const ReuseProfile p =
          build_reuse_profile(trace::spec_profile(b, length, 2026));
      for (const SetsWays& g : geometries) {
        for (const double alpha : alphas) {
          for (const double w : windows) {
            const MissEstimate got = rdh_misses(p, g.sets, g.ways, alpha, w);
            const MissEstimate want = general_rdh(p, g.sets, g.ways, alpha, w);
            ++compared;
            if (got.fills == want.fills && got.demand == want.demand) continue;
            if (mismatches++ == 0) {
              std::ostringstream os;
              os.precision(17);
              os << trace::spec_name(b) << " length=" << length
                 << " sets=" << g.sets << " ways=" << g.ways
                 << " alpha=" << alpha << " window=" << w << ": fills "
                 << got.fills << " vs " << want.fills << ", demand "
                 << got.demand << " vs " << want.demand;
              first = os.str();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 16u * geometries.size() * alphas.size() *
                          windows.size());
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

TEST(RdhBatch, PooledEngineEqualsSerialJobForJob) {
  register_analytic_executors();
  // A seed no other suite uses, so the pooled workers meet cold profile
  // and miss-table caches.
  std::vector<exp::SimJob> jobs;
  for (const auto b : trace::all_spec_benchmarks()) {
    const trace::WorkloadProfile wl = trace::spec_profile(b, 20000, 4242);
    for (const ScreenGeometry& g : kScreenGeometries) {
      for (const std::uint32_t mshr : {1u, 12u}) {
        sim::MachineConfig m = screen_machine(g);
        m.l1.mshr_entries = mshr;
        exp::SimJob job = exp::SimJob::solo(std::move(m), wl,
                                            /*calibrate=*/true, "rdh-batch");
        job.backend = kRdhBackend;
        jobs.push_back(std::move(job));
      }
    }
  }
  using Options = exp::ExperimentEngine::Options;
  exp::ExperimentEngine pooled(Options{.threads = 4, .cache_bytes = 0});
  exp::ExperimentEngine serial(Options{.threads = 1, .cache_bytes = 0});
  const auto got = pooled.run_batch(jobs);
  const auto want = serial.run_batch(jobs);
  ASSERT_EQ(got.size(), jobs.size());
  ASSERT_EQ(want.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(got[i]->run == want[i]->run) << "job " << i;
    EXPECT_EQ(got[i]->calib, want[i]->calib) << "job " << i;
  }
}

}  // namespace
}  // namespace lpm::model
