#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace lpm::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.next_below(0), LpmError);
}

// next_below's power-of-two path must return the rejection loop's value
// and leave the stream where the loop leaves it.
TEST(Rng, PowerOfTwoNextBelowMatchesRejectionPath) {
  const auto rejection = [](Rng& r, std::uint64_t bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
      const std::uint64_t v = r.next_u64();
      if (v >= threshold) return v % bound;
    }
  };
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{8},
        std::uint64_t{1} << 32, std::uint64_t{1} << 63}) {
    for (const std::uint64_t seed : {1u, 2026u, 99991u}) {
      Rng fast(seed);
      Rng slow(seed);
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(fast.next_below(bound), rejection(slow, bound))
            << "bound " << bound << " seed " << seed << " draw " << i;
      }
      EXPECT_EQ(fast.next_u64(), slow.next_u64()) << "bound " << bound;
    }
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.next_in(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= v == 10;
    saw_hi |= v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextInBadRangeThrows) {
  Rng r(5);
  EXPECT_THROW(r.next_in(4, 3), LpmError);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolEdgeProbabilities) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, NextBoolFrequency) {
  Rng r(13);
  int yes = 0;
  for (int i = 0; i < 50000; ++i) {
    if (r.next_bool(0.3)) ++yes;
  }
  EXPECT_NEAR(yes / 50000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatchesTheory) {
  Rng r(17);
  const double p = 0.25;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(r.next_geometric(p));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricPOneIsZero) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_geometric(1.0), 0u);
}

TEST(Rng, GeometricInvalidThrows) {
  Rng r(17);
  EXPECT_THROW(r.next_geometric(0.0), LpmError);
  EXPECT_THROW(r.next_geometric(1.5), LpmError);
}

TEST(Rng, ExponentialMeanMatchesTheory) {
  Rng r(19);
  const double lambda = 2.0;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatchTheory) {
  Rng r(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ZipfSampler, UniformWhenSkewZero) {
  Rng r(31);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  Rng r(37);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[90]);
}

TEST(ZipfSampler, SingleElement) {
  Rng r(41);
  ZipfSampler z(1, 2.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 0u);
}

/// The first index whose CDF value exceeds u: the full binary search the
/// guide table replaces.
std::size_t full_search(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0;
  std::size_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Probes every CDF value and its neighbours, every slice edge a guide of
// up to kMaxGuideSlices slices can have, and random draws, at sizes below,
// at and above the guide cap.
TEST(ZipfSampler, GuideTableMatchesFullBinarySearch) {
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 8192u, 8193u, 262144u}) {
    for (const double s : {0.0, 0.05, 0.9, 1.1}) {
      const ZipfSampler z(n, s);
      const std::vector<double>& cdf = z.cdf();
      ASSERT_EQ(cdf.size(), n);
      ASSERT_EQ(cdf.back(), 1.0);
      std::size_t mismatches = 0;
      const auto probe = [&](double u) {
        if (u < 0.0 || u >= 1.0) return;
        if (z.index_of(u) != full_search(cdf, u)) ++mismatches;
      };
      for (const double c : cdf) {
        probe(c);
        probe(std::nextafter(c, 0.0));
        probe(std::nextafter(c, 1.0));
      }
      constexpr std::size_t kEdges = ZipfSampler::kMaxGuideSlices;
      for (std::size_t j = 0; j < kEdges; ++j) {
        const double edge = static_cast<double>(j) / kEdges;
        probe(edge);
        probe(std::nextafter(edge, 0.0));
        probe(std::nextafter(edge, 1.0));
      }
      probe(std::nextafter(1.0, 0.0));
      Rng fast(n * 31 + static_cast<std::uint64_t>(s * 100));
      Rng slow = fast;
      for (int i = 0; i < 100000; ++i) {
        if (z.sample(fast) != full_search(cdf, slow.next_double())) {
          ++mismatches;
        }
      }
      EXPECT_EQ(fast.next_u64(), slow.next_u64());
      EXPECT_EQ(mismatches, 0u) << "n " << n << " s " << s;
    }
  }
}

TEST(ZipfSampler, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), LpmError);
  EXPECT_THROW(ZipfSampler(4, -1.0), LpmError);
}

TEST(DiscreteSampler, MatchesWeights) {
  Rng r(43);
  DiscreteSampler d({1.0, 3.0, 0.0, 6.0});
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[d.sample(r)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(DiscreteSampler, InvalidWeightsThrow) {
  EXPECT_THROW(DiscreteSampler({}), LpmError);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), LpmError);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), LpmError);
}

}  // namespace
}  // namespace lpm::util
