#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

namespace lpm::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) {
    word = splitmix64(x);
  }
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

std::uint64_t Rng::next_below_rejection(std::uint64_t bound) {
  require(bound > 0, "Rng::next_below: bound must be positive");
  // Lemire-style rejection: accept unless in the biased tail.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "Rng::next_in: lo must be <= hi");
  const std::uint64_t span = hi - lo;
  if (span == ~std::uint64_t{0}) {
    return next_u64();
  }
  return lo + next_below(span + 1);
}

std::uint64_t Rng::next_geometric(double p) {
  require(p > 0.0 && p <= 1.0, "Rng::next_geometric: p must be in (0, 1]");
  if (p == 1.0) return 0;
  const double u = next_double();
  // Inverse CDF; u in [0,1) keeps log argument positive.
  return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

double Rng::next_exponential(double lambda) {
  require(lambda > 0.0, "Rng::next_exponential: lambda must be positive");
  const double u = next_double();
  return -std::log1p(-u) / lambda;
}

double Rng::next_normal(double mean, double stddev) {
  // Box-Muller; discard the second variate for stateless simplicity.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork(std::uint64_t tag) {
  return Rng(next_u64() ^ (tag * 0x9e3779b97f4a7c15ULL) ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  require(n >= 1, "ZipfSampler: n must be >= 1");
  require(n <= UINT32_MAX, "ZipfSampler: n must be below 2^32");
  require(s >= 0.0, "ZipfSampler: skew must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) {
    c /= acc;
  }
  cdf_.back() = 1.0;  // guard against FP round-down

  const std::size_t slices = std::min(kMaxGuideSlices, std::bit_ceil(n));
  guide_scale_ = static_cast<double>(slices);
  guide_.resize(slices + 1);
  std::uint32_t i = 0;
  for (std::size_t j = 0; j < slices; ++j) {
    const double edge = static_cast<double>(j) / guide_scale_;  // exact
    while (cdf_[i] <= edge) ++i;  // stops: cdf_.back() == 1 > edge
    guide_[j] = i;
  }
  guide_[slices] = static_cast<std::uint32_t>(n - 1);
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  require(!weights.empty(), "DiscreteSampler: weights must be non-empty");
  cdf_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    require(weights[i] >= 0.0, "DiscreteSampler: weights must be non-negative");
    acc += weights[i];
    cdf_[i] = acc;
  }
  require(acc > 0.0, "DiscreteSampler: weights must not all be zero");
  for (auto& c : cdf_) {
    c /= acc;
  }
  cdf_.back() = 1.0;
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace lpm::util
