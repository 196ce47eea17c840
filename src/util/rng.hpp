// Deterministic pseudo-random number generation for workload synthesis.
//
// The simulator must be reproducible: every stochastic choice flows through
// an explicitly seeded Rng. We use xoshiro256** (Blackman & Vigna), which is
// fast, has a 2^256-1 period, and passes BigCrush; std::mt19937_64 would work
// too but is slower and its distributions are not portable across standard
// library implementations. All distributions here are hand-rolled so results
// are bit-identical on every platform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace lpm::util {

/// xoshiro256** seeded via splitmix64. Copyable (cheap state) so generators
/// can fork independent streams deterministically.
///
/// The per-draw calls (next_u64, next_double, next_bool and next_below's
/// power-of-two path) are inline: trace synthesis makes several per op.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias. A power-of-two bound divides 2^64, so nothing is
  /// ever rejected: one draw, masked, is the value the rejection loop
  /// returns.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound != 0 && (bound & (bound - 1)) == 0) {
      return next_u64() & (bound - 1);
    }
    return next_below_rejection(bound);
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric distribution: number of failures before first success,
  /// success probability p in (0, 1].
  std::uint64_t next_geometric(double p);

  /// Exponential with rate lambda > 0.
  double next_exponential(double lambda);

  /// Standard normal via Box-Muller (no cached spare: keeps state small).
  double next_normal(double mean = 0.0, double stddev = 1.0);

  /// Forks an independent stream: hashes this stream's next output with the
  /// given tag so sibling streams do not correlate.
  Rng fork(std::uint64_t tag);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// next_below for any bound: Lemire-style rejection of the biased tail.
  std::uint64_t next_below_rejection(std::uint64_t bound);

  std::array<std::uint64_t, 4> s_{};
};

/// Zipf(N, s) sampler over {0, .., n-1}: the first index whose CDF value
/// exceeds a uniform u. Heavy ranks are the *low* indices, matching the
/// usual convention for modelling temporal locality (rank-0 block is the
/// hottest).
///
/// A guide table finds that index without a search over the whole CDF.
/// [0, 1) is cut into G = min(2^13, bit_ceil(n)) equal slices, and
/// guide_[j] holds the first index whose CDF exceeds the slice's left edge
/// j/G (guide_[G] = n-1). Any u in slice j = floor(u * G) has its answer
/// in [guide_[j], guide_[j+1]], where a short branch-free search finds it.
/// G is a power of two, so j/G and u * G are exact and the result is the
/// full search's, bit for bit.
class ZipfSampler {
 public:
  /// n must be >= 1 and < 2^32; s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(Rng& rng) const {
    return index_of(rng.next_double());
  }

  /// The first index whose CDF value exceeds `u`, for u in [0, 1).
  [[nodiscard]] std::size_t index_of(double u) const {
    const auto slice = static_cast<std::size_t>(u * guide_scale_);
    const double* base = cdf_.data() + guide_[slice];
    std::size_t len = guide_[slice + 1] - guide_[slice] + 1;
    while (len > 1) {
      const std::size_t half = len / 2;
      base = base[half - 1] <= u ? base + half : base;
      len -= half;
    }
    return static_cast<std::size_t>(base - cdf_.data());
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double skew() const { return s_; }
  /// The normalized CDF; the last value is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }

  /// Upper bound on the guide table's slice count.
  static constexpr std::size_t kMaxGuideSlices = std::size_t{1} << 13;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  ///< G + 1 CDF indices
  double guide_scale_;                ///< G
  double s_;
};

/// Samples an index from a discrete distribution given by non-negative
/// weights (need not be normalized). Precomputes a CDF.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace lpm::util
