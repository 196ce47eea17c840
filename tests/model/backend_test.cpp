// ModelBackend seam + analytic closed forms.
//
// The closed-form tests pin the documented miss-curve semantics of
// src/model/analytic.hpp on an exactly-known reuse profile: the profiling
// pass conserves accesses (leaders + followers == mem_ops, one cold leader
// per distinct block) and keeps only the histogram's support (arrays cut to
// distance_end, under 1 MB for a 20k-op trace), an infinite cache keeps
// only compulsory bursts, a one-set rdh cache is bit-identical to the
// fully-associative model, and both curves are monotone in capacity. The seam tests pin the factory
// contract and the fidelity tagging of LayerEstimates end to end through
// the facade.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "lpm.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "obs/metrics.hpp"
#include "sim/machine_config.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"

namespace lpm::model {
namespace {

trace::WorkloadProfile small_workload() {
  auto wl = trace::spec_profile(trace::SpecBenchmark::kGcc, 12000, 5);
  return wl;
}

TEST(ReuseProfileTest, ConservesAccessesAndColdLeaders) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  ASSERT_GT(p.mem_ops, 0u);
  ASSERT_GT(p.distinct_blocks, 0u);

  // The first touch of a block can never coalesce with an earlier access,
  // so it is always a burst leader: one compulsory leader per block.
  EXPECT_EQ(p.cold, p.distinct_blocks);

  // Every memory access is exactly one of: cold leader, reuse leader
  // (suffix[0] spans all tracked distances plus the overflow bucket), or a
  // follower of one of those.
  std::uint64_t total = p.cold + p.suffix[0];
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    total += p.cold_followers[c] + p.suffix_followers[c][0];
  }
  EXPECT_EQ(total, p.mem_ops);

  // Covered accesses are a subset, bucket by bucket.
  EXPECT_LE(p.cold_covered, p.cold);
  EXPECT_LE(p.suffix_covered[0], p.suffix[0]);
}

TEST(ReuseProfileTest, ArraysAreCutToTheSupport) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  ASSERT_GT(p.distance_end, 0u);
  // A leader's stack distance counts distinct blocks other than its own.
  EXPECT_LE(p.distance_end, p.distinct_blocks);
  EXPECT_GT(p.hist[p.distance_end - 1], 0u) << "support ends on a leader";
  EXPECT_EQ(p.hist.size(), p.distance_end);
  EXPECT_EQ(p.covered.size(), p.distance_end);
  EXPECT_EQ(p.suffix.size(), p.distance_end + 1);
  EXPECT_EQ(p.suffix_covered.size(), p.distance_end + 1);
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    EXPECT_EQ(p.followers[c].size(), p.distance_end);
    EXPECT_EQ(p.followers_covered[c].size(), p.distance_end);
    EXPECT_EQ(p.suffix_followers[c].size(), p.distance_end + 1);
    EXPECT_EQ(p.suffix_followers_covered[c].size(), p.distance_end + 1);
  }
  // Every distance at or past the support reads the tail slot.
  EXPECT_EQ(p.tail(0), 0u);
  EXPECT_EQ(p.tail(p.distance_end - 1), p.distance_end - 1);
  EXPECT_EQ(p.tail(p.distance_end), p.distance_end);
  EXPECT_EQ(p.tail(ReuseProfile::kMaxTrackedDistance), p.distance_end);
}

TEST(ReuseProfileTest, TwentyThousandOpProfilesRetainUnderOneMegabyte) {
  // The 20 per-distance arrays scale with the reuse support, which a 20k-op
  // trace keeps to a few thousand buckets; sized to kMaxTrackedDistance
  // they would hold ~10.5 MB.
  auto bytes = [](const std::vector<std::uint64_t>& v) {
    return v.capacity() * sizeof(std::uint64_t);
  };
  for (const auto b : trace::all_spec_benchmarks()) {
    const ReuseProfile p =
        build_reuse_profile(trace::spec_profile(b, 20000, 2026));
    std::size_t retained = bytes(p.hist) + bytes(p.covered) + bytes(p.suffix) +
                           bytes(p.suffix_covered);
    for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
      retained += bytes(p.followers[c]) + bytes(p.followers_covered[c]) +
                  bytes(p.suffix_followers[c]) +
                  bytes(p.suffix_followers_covered[c]);
    }
    EXPECT_LT(retained, std::size_t{1} << 20) << trace::spec_name(b);
  }
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter_or_zero(name);
}

TEST(ProfileCache, ConcurrentMissesBuildOneProfile) {
  ProfileCache& cache = ProfileCache::global();
  // A workload no other test profiles, long enough that every thread
  // misses while the first build runs.
  const auto wl = trace::spec_profile(trace::SpecBenchmark::kMcf, 200'000, 901);
  constexpr int kThreads = 8;
  const std::uint64_t builds = cache.profile_builds();
  const std::uint64_t built = counter("model.backend.profile_builds");
  std::vector<std::shared_ptr<const ReuseProfile>> got(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      got[i] = cache.reuse(wl);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.profile_builds(), builds + 1);
  EXPECT_EQ(counter("model.backend.profile_builds"), built + 1);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p.get(), got.front().get());
  }
}

TEST(ProfileCache, StaysWithinItsBudgetAndRebuildsEvictedProfilesIdentically) {
  ProfileCache& cache = ProfileCache::global();
  exp::SimJob job = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 20'000, 902));
  job.backend = kRdhBackend;
  const exp::SimJobResult first = evaluate_analytic(job);
  // Profile fresh workloads on 4 threads until their footprints alone
  // exceed the budget: the least recently used profile, the job's, must go.
  const auto& all = trace::all_spec_benchmarks();
  std::atomic<std::uint64_t> profiled{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t seed = 903; profiled.load() <= ProfileCache::kBudgetBytes;
           ++seed) {
        for (std::size_t b = t; b < all.size(); b += 4) {
          const auto p = cache.reuse(trace::spec_profile(all[b], 200'000, seed));
          profiled += ProfileCache::footprint(*p);
          EXPECT_LE(cache.bytes(), ProfileCache::kBudgetBytes);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t builds = cache.profile_builds();
  const exp::SimJobResult again = evaluate_analytic(job);
  EXPECT_EQ(cache.profile_builds(), builds + 1) << "the profile was evicted";
  EXPECT_EQ(again.fingerprint, first.fingerprint);
  EXPECT_EQ(again.backend, first.backend);
  EXPECT_EQ(again.run, first.run);
  EXPECT_EQ(again.calib, first.calib);
}

TEST(AnalyticMissCurves, InfiniteCacheKeepsOnlyCompulsoryBursts) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  // Large enough that even the overflow bucket hits (the profile's working
  // set is far below kMaxTrackedDistance blocks, so the overflow is 0).
  const auto e = fa_misses(p, ReuseProfile::kMaxTrackedDistance, 0.0);
  const std::size_t tail = p.tail(ReuseProfile::kMaxTrackedDistance);
  const std::uint64_t overflow = p.suffix[tail];
  EXPECT_DOUBLE_EQ(e.fills, static_cast<double>(p.cold + overflow));
  // With the widest coalescing window every follower class counts fully,
  // so demand is the compulsory bursts in full.
  double cold_followers = 0.0;
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    cold_followers += static_cast<double>(
        p.cold_followers[c] + p.suffix_followers[c][tail]);
  }
  EXPECT_NEAR(e.demand, static_cast<double>(p.cold + overflow) + cold_followers,
              1e-9);
  EXPECT_LE(e.fills, e.demand + 1e-12);
}

TEST(AnalyticMissCurves, OneSetRdhDegeneratesToFullyAssociative) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  for (const std::uint32_t assoc : {1u, 4u, 64u, 1024u}) {
    const auto fa = fa_misses(p, assoc, 0.3, 16.0);
    const auto rdh = rdh_misses(p, /*sets=*/1, assoc, 0.3, 16.0);
    EXPECT_DOUBLE_EQ(fa.demand, rdh.demand) << "assoc=" << assoc;
    EXPECT_DOUBLE_EQ(fa.fills, rdh.fills) << "assoc=" << assoc;
  }
}

TEST(AnalyticMissCurves, MonotoneInCapacityAndBoundedByDemand) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  double prev_fa = static_cast<double>(p.mem_ops) + 1.0;
  double prev_rdh = prev_fa;
  for (std::uint64_t blocks = 8; blocks <= (1u << 15); blocks *= 2) {
    const auto fa = fa_misses(p, blocks, 0.0);
    const auto rdh = rdh_misses(p, blocks / 8, 8, 0.0);
    EXPECT_LE(fa.fills, fa.demand + 1e-9);
    EXPECT_LE(rdh.fills, rdh.demand + 1e-9);
    EXPECT_LE(fa.demand, static_cast<double>(p.mem_ops) + 1e-9);
    EXPECT_LE(fa.demand, prev_fa + 1e-9) << "blocks=" << blocks;
    EXPECT_LE(rdh.demand, prev_rdh + 1e-9) << "blocks=" << blocks;
    prev_fa = fa.demand;
    prev_rdh = rdh.demand;
    // No rdh-vs-fa ordering is asserted: the undamped binomial correction
    // only adds conflict misses, but the calibrated conflict damping lets
    // rdh dip marginally below fa at small capacities.
  }
}

TEST(AnalyticMissCurves, PrefetchAlphaOnlyRemovesCoveredMisses) {
  const ReuseProfile p = build_reuse_profile(small_workload());
  const auto none = fa_misses(p, 256, 0.0);
  const auto half = fa_misses(p, 256, 0.5);
  const auto full = fa_misses(p, 256, 1.0);
  EXPECT_GE(none.demand, half.demand - 1e-9);
  EXPECT_GE(half.demand, full.demand - 1e-9);
  EXPECT_GE(full.demand, -1e-12);
  EXPECT_GE(full.fills, -1e-12);
}

TEST(BackendFactory, NamesAndUnknownName) {
  const auto& names = backend_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], exp::kCycleBackend);
  EXPECT_EQ(names[1], kRdhBackend);
  EXPECT_EQ(names[2], kFaBackend);
  EXPECT_THROW((void)make_backend("mystery"), util::ConfigError);
  for (const auto& name : names) {
    const auto b = make_backend(name);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name(), name);
  }
  EXPECT_EQ(make_backend(exp::kCycleBackend)->fidelity(),
            Fidelity::kCycleAccurate);
  EXPECT_EQ(make_backend(kRdhBackend)->fidelity(), Fidelity::kAnalytic);
  EXPECT_EQ(make_backend(kFaBackend)->fidelity(), Fidelity::kAnalytic);
}

TEST(BackendSeam, EvaluateTagsFidelityAndSatisfiesLayerShape) {
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options{.threads = 2});
  const auto machine = sim::MachineConfig::single_core_default();
  const auto spec = TraceSpec::profile(small_workload());

  for (const std::string name : {std::string(exp::kCycleBackend),
                                 std::string(kRdhBackend),
                                 std::string(kFaBackend)}) {
    const auto backend = make_backend(name, &engine);
    const auto est = backend->evaluate(machine, spec);
    EXPECT_EQ(est.backend, name);
    EXPECT_EQ(est.fidelity, name == exp::kCycleBackend
                                ? Fidelity::kCycleAccurate
                                : Fidelity::kAnalytic);
    ASSERT_NE(est.result, nullptr);
    ASSERT_FALSE(est.levels.empty()) << name;
    EXPECT_EQ(est.levels.front().name, "l1");
    EXPECT_EQ(est.levels.back().name, "dram");
    for (const auto& level : est.levels) {
      EXPECT_GE(level.mr, 0.0) << name << "/" << level.name;
      EXPECT_LE(level.mr, 1.0 + 1e-9) << name << "/" << level.name;
      EXPECT_GE(level.camat, 0.0) << name << "/" << level.name;
    }
    // calibrate defaults to true, so the LPM view must be populated.
    ASSERT_FALSE(est.apps.empty()) << name;
    EXPECT_GT(est.app().measured_cpi, 0.0) << name;
    EXPECT_GT(est.lpmr.lpmr1, 0.0) << name;
    EXPECT_GT(est.fingerprint, 0u) << name;
  }
}

TEST(BackendSeam, AnalyticAndCycleAreDistinctCacheEntries) {
  exp::ExperimentEngine engine(
      exp::ExperimentEngine::Options{.threads = 1});
  const auto machine = sim::MachineConfig::single_core_default();
  const auto spec = TraceSpec::profile(small_workload());

  const auto cycle = make_backend(exp::kCycleBackend, &engine);
  const auto rdh = make_backend(kRdhBackend, &engine);
  const auto a = cycle->evaluate(machine, spec);
  const auto b = rdh->evaluate(machine, spec);
  // Same point, different fidelity: the memo cache must keep them apart.
  EXPECT_NE(a.fingerprint, b.fingerprint);

  // Determinism: re-evaluating either backend reproduces the estimate.
  const auto a2 = cycle->evaluate(machine, spec);
  const auto b2 = rdh->evaluate(machine, spec);
  EXPECT_EQ(a.fingerprint, a2.fingerprint);
  EXPECT_DOUBLE_EQ(a.levels[0].mr, a2.levels[0].mr);
  EXPECT_DOUBLE_EQ(b.levels[0].mr, b2.levels[0].mr);
  EXPECT_DOUBLE_EQ(b.app().l1.camat(), b2.app().l1.camat());
}

TEST(BackendSeam, FacadeEstimateRoutesByName) {
  const auto machine = sim::MachineConfig::single_core_default();
  const auto spec = TraceSpec::spec("403.gcc", 12000, 5);
  const auto est = lpm::estimate(machine, spec, kFaBackend);
  EXPECT_EQ(est.backend, kFaBackend);
  EXPECT_EQ(est.fidelity, Fidelity::kAnalytic);
  EXPECT_THROW((void)lpm::estimate(machine, spec, "nope"), util::ConfigError);
}

}  // namespace
}  // namespace lpm::model
