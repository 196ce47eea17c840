// The analytic miss models evaluate only the reuse histogram's support.
//
// A ReuseProfile keeps its per-distance arrays cut to `distance_end` (one
// past the largest non-empty bucket) plus one suffix tail slot, and a
// packed list of its non-empty buckets. rdh_misses visits only those
// buckets, up to the distance where P[miss] saturates, and fa_misses reads
// one suffix slot. These tests pin that neither shortcut changes an
// answer: a full-range reference — the evaluation loop over every distance
// in [0, kMaxTrackedDistance), reading zero past the support and the tail
// slot at or beyond it — must agree with the library to the last bit,
// across cache geometries, prefetch factors and coalescing windows, on
// profiles whose support is short, sparse, capped, or empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rdh_reference.hpp"
#include "model/analytic.hpp"
#include "trace/spec_like.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::model {
namespace {

using test::at;
using test::fractions;
using test::kMaxD;
using test::miss_prob;
using test::suffix_at;

// --- full-range reference ---------------------------------------------------

MissEstimate reference_fa(const ReuseProfile& p, std::uint64_t capacity,
                          double alpha, double window) {
  const std::size_t c = static_cast<std::size_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(capacity, 1), kMaxD));
  const auto frac = fractions(window);
  const double fills =
      static_cast<double>(p.cold + suffix_at(p, p.suffix, c));
  const double fills_cov =
      static_cast<double>(p.cold_covered + suffix_at(p, p.suffix_covered, c));
  double foll = 0.0;
  double foll_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    foll += frac[cl] *
            static_cast<double>(p.cold_followers[cl] +
                                suffix_at(p, p.suffix_followers[cl], c));
    foll_cov += frac[cl] * static_cast<double>(
                               p.cold_followers_covered[cl] +
                               suffix_at(p, p.suffix_followers_covered[cl], c));
  }
  MissEstimate e;
  e.fills = std::max(0.0, fills - alpha * fills_cov);
  e.demand = std::max(0.0, fills + foll - alpha * (fills_cov + foll_cov));
  return e;
}

MissEstimate reference_rdh(const ReuseProfile& p, std::uint64_t sets,
                           std::uint32_t assoc, double alpha, double window) {
  if (sets == 1) return reference_fa(p, assoc, alpha, window);
  const std::vector<double>& pmiss = miss_prob(sets, assoc);
  const auto frac = fractions(window);
  const std::uint64_t capacity = sets * static_cast<std::uint64_t>(assoc);
  constexpr double kConflictDamp = 0.5;

  MissEstimate e;
  double foll_cold = 0.0;
  double foll_cold_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    foll_cold += frac[cl] * static_cast<double>(p.cold_followers[cl]);
    foll_cold_cov += frac[cl] * static_cast<double>(p.cold_followers_covered[cl]);
  }
  e.fills = static_cast<double>(p.cold) -
            alpha * static_cast<double>(p.cold_covered);
  e.demand = static_cast<double>(p.cold) + foll_cold -
             alpha * (static_cast<double>(p.cold_covered) + foll_cold_cov);
  auto add_tail = [&](std::size_t d) {
    double f = 0.0, f_cov = 0.0;
    for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
      f += frac[cl] *
           static_cast<double>(suffix_at(p, p.suffix_followers[cl], d));
      f_cov += frac[cl] * static_cast<double>(
                              suffix_at(p, p.suffix_followers_covered[cl], d));
    }
    const double s = static_cast<double>(suffix_at(p, p.suffix, d));
    const double s_cov = static_cast<double>(suffix_at(p, p.suffix_covered, d));
    e.fills += s - alpha * s_cov;
    e.demand += s + f - alpha * (s_cov + f_cov);
  };
  for (std::size_t d = 0; d < kMaxD; ++d) {
    const double pm = pmiss[d];
    if (pm >= 1.0 - 1e-12) {
      add_tail(d);
      e.fills = std::max(0.0, e.fills);
      e.demand = std::max(0.0, e.demand);
      return e;
    }
    double f = 0.0, f_cov = 0.0;
    for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
      f += frac[cl] * static_cast<double>(at(p, p.followers[cl], d));
      f_cov +=
          frac[cl] * static_cast<double>(at(p, p.followers_covered[cl], d));
    }
    const std::uint64_t h = at(p, p.hist, d);
    if (h == 0 && f == 0.0) continue;
    const double h_cov = static_cast<double>(at(p, p.covered, d));
    const double pm_eff = d < capacity ? kConflictDamp * pm : pm;
    e.fills += pm_eff * (static_cast<double>(h) - alpha * h_cov);
    e.demand += pm_eff * (static_cast<double>(h) + f - alpha * (h_cov + f_cov));
  }
  add_tail(kMaxD);
  e.fills = std::max(0.0, e.fills);
  e.demand = std::max(0.0, e.demand);
  return e;
}

// --- profiles ---------------------------------------------------------------

/// One stream of 64-byte steps plus uniform random accesses over 8 MiB
/// (twice kMaxTrackedDistance blocks): random reuse spreads over every
/// tracked distance, and the stream's wrap-around reuse overflows.
trace::WorkloadProfile capped_stream() {
  trace::WorkloadProfile wl;
  wl.name = "capped-stream";
  wl.fmem = 1.0;
  wl.working_set_bytes = 2 * kMaxD * ReuseProfile::kBlockBytes;
  wl.zipf_skew = 0.0;
  wl.seq_fraction = 0.5;
  wl.num_streams = 1;
  wl.stride_bytes = ReuseProfile::kBlockBytes;
  wl.length = 320000;
  wl.seed = 11;
  return wl;
}

/// A single stream that never wraps: every access is a first touch.
trace::WorkloadProfile no_reuse() {
  trace::WorkloadProfile wl;
  wl.name = "no-reuse";
  wl.fmem = 1.0;
  wl.seq_fraction = 1.0;
  wl.num_streams = 1;
  wl.stride_bytes = ReuseProfile::kBlockBytes;
  wl.length = 5000;
  wl.working_set_bytes = 2 * wl.length * ReuseProfile::kBlockBytes;
  wl.seed = 3;
  return wl;
}

void expect_matches_full_range(const ReuseProfile& p, const char* name) {
  for (const std::uint64_t sets :
       {1u, 2u, 32u, 64u, 128u, 512u, 1024u, 4096u}) {
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
      for (const double alpha : {0.0, 0.3, 0.93}) {
        for (const double window : {1.0, 4.0, 16.0, 256.0}) {
          const auto rdh = rdh_misses(p, sets, ways, alpha, window);
          const auto rdh_ref = reference_rdh(p, sets, ways, alpha, window);
          EXPECT_EQ(rdh.demand, rdh_ref.demand)
              << name << " rdh sets=" << sets << " ways=" << ways
              << " alpha=" << alpha << " window=" << window;
          EXPECT_EQ(rdh.fills, rdh_ref.fills)
              << name << " rdh sets=" << sets << " ways=" << ways
              << " alpha=" << alpha << " window=" << window;
          const std::uint64_t blocks = sets * ways;
          const auto fa = fa_misses(p, blocks, alpha, window);
          const auto fa_ref = reference_fa(p, blocks, alpha, window);
          EXPECT_EQ(fa.demand, fa_ref.demand)
              << name << " fa blocks=" << blocks << " alpha=" << alpha
              << " window=" << window;
          EXPECT_EQ(fa.fills, fa_ref.fills)
              << name << " fa blocks=" << blocks << " alpha=" << alpha
              << " window=" << window;
        }
      }
    }
  }
}

TEST(AnalyticSupport, SpecProfilesMatchTheFullRangeLoop) {
  // Streaming profiles (milc, libquantum, leslie3d, zeusmp, soplex) leave
  // most buckets below distance_end empty.
  for (const auto b : trace::all_spec_benchmarks()) {
    const ReuseProfile p =
        build_reuse_profile(trace::spec_profile(b, 20000, 2026));
    ASSERT_GT(p.distance_end, 0u) << trace::spec_name(b);
    ASSERT_LT(p.distance_end, kMaxD) << trace::spec_name(b);
    expect_matches_full_range(p, trace::spec_name(b).c_str());
  }
}

TEST(AnalyticSupport, NonEmptyRecordsMatchTheDenseArrays) {
  for (const auto b : trace::all_spec_benchmarks()) {
    const ReuseProfile p =
        build_reuse_profile(trace::spec_profile(b, 20000, 2026));
    const std::string name = trace::spec_name(b);
    std::size_t next = 0;
    for (std::size_t d = 0; d < p.distance_end; ++d) {
      if (p.hist[d] == 0) {
        // Followers ride a leader's bucket, so an empty hist means an
        // empty bucket: skipping it drops nothing.
        for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
          EXPECT_EQ(p.followers[c][d], 0u) << name << " d=" << d;
          EXPECT_EQ(p.followers_covered[c][d], 0u) << name << " d=" << d;
        }
        continue;
      }
      ASSERT_LT(next, p.buckets.size()) << name << " d=" << d;
      const ReuseProfile::Bucket& rec = p.buckets[next++];
      ASSERT_EQ(rec.distance, d) << name;
      EXPECT_EQ(rec.hist, static_cast<double>(p.hist[d])) << name << " d=" << d;
      EXPECT_EQ(rec.covered, static_cast<double>(p.covered[d]))
          << name << " d=" << d;
      // Follower counts are cumulative in class order.
      std::uint64_t cum = 0;
      std::uint64_t cum_covered = 0;
      for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
        cum += p.followers[c][d];
        cum_covered += p.followers_covered[c][d];
        EXPECT_EQ(rec.cum_followers[c], static_cast<double>(cum))
            << name << " d=" << d << " class=" << c;
        EXPECT_EQ(rec.cum_followers_covered[c],
                  static_cast<double>(cum_covered))
            << name << " d=" << d << " class=" << c;
      }
    }
    EXPECT_EQ(next, p.buckets.size()) << name;
  }
}

TEST(AnalyticSupport, MissTablesAreKeyedByTheExactGeometry) {
  // (3 sets, 1 way) and (2 sets, 132 ways) once shared a cache slot, so
  // whichever geometry ran first answered for both.
  const ReuseProfile p = build_reuse_profile(
      trace::spec_profile(trace::SpecBenchmark::kGcc, 20000, 2026));
  const auto first = rdh_misses(p, 3, 1, 0.0, 16.0);
  const auto first_ref = reference_rdh(p, 3, 1, 0.0, 16.0);
  EXPECT_EQ(first.demand, first_ref.demand);
  const auto second = rdh_misses(p, 2, 132, 0.0, 16.0);
  const auto second_ref = reference_rdh(p, 2, 132, 0.0, 16.0);
  EXPECT_EQ(second.demand, second_ref.demand);
  EXPECT_EQ(second.fills, second_ref.fills);
}

TEST(AnalyticSupport, CappedSupportWithOverflowMatchesTheFullRangeLoop) {
  const ReuseProfile p = build_reuse_profile(capped_stream());
  ASSERT_EQ(p.distance_end, kMaxD);
  ASSERT_GT(p.suffix[p.tail(kMaxD)], 0u) << "overflow bucket is empty";
  // The tail slot keeps the overflow leaders' followers too: every access
  // is still a cold leader, a reuse leader, or a follower of one.
  std::uint64_t total = p.cold + p.suffix[0];
  std::uint64_t tail_followers = 0;
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    total += p.cold_followers[c] + p.suffix_followers[c][0];
    tail_followers += p.suffix_followers[c][kMaxD];
    EXPECT_LE(p.suffix_followers_covered[c][kMaxD],
              p.suffix_followers[c][kMaxD]);
  }
  ASSERT_EQ(total, p.mem_ops);
  ASSERT_GT(tail_followers, 0u) << "no follower of an overflow leader";
  expect_matches_full_range(p, "capped-stream");
}

TEST(AnalyticSupport, NoReuseMatchesTheFullRangeLoop) {
  const ReuseProfile p = build_reuse_profile(no_reuse());
  ASSERT_EQ(p.distance_end, 0u);
  ASSERT_EQ(p.cold, p.mem_ops);
  expect_matches_full_range(p, "no-reuse");
}

}  // namespace
}  // namespace lpm::model
