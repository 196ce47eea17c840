// Test-only references for the analytic miss models (src/model/analytic):
// the binomial miss-probability table over every tracked distance, the
// per-class burst fractions, and full-range views of a profile cut to its
// support. Written straight from the model's definitions, so a library
// shortcut that changes an answer shows up as a bitwise mismatch.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "model/analytic.hpp"

namespace lpm::model::test {

inline constexpr std::size_t kMaxD = ReuseProfile::kMaxTrackedDistance;

/// P[miss] at or above this counts as certain (the library's cut-off).
inline constexpr double kMissSaturated = 1.0 - 1e-12;

/// P[Binom(d, 1/sets) >= assoc] for every d in [0, kMaxD]: the same
/// truncated pmf recursion the library uses, 1.0 from the first saturated
/// distance on.
inline std::vector<double> reference_miss_prob(std::uint64_t sets,
                                               std::uint32_t assoc) {
  std::vector<double> miss(kMaxD + 1, 1.0);
  const double q = 1.0 / static_cast<double>(sets);
  std::vector<double> pmf(assoc, 0.0);
  pmf[0] = 1.0;
  double survive = 1.0;
  for (std::size_t d = 0; d <= kMaxD; ++d) {
    miss[d] = 1.0 - survive;
    if (survive < 1e-12) {
      std::fill(miss.begin() + static_cast<std::ptrdiff_t>(d), miss.end(), 1.0);
      break;
    }
    for (std::size_t k = assoc; k-- > 0;) {
      const double from_below = k > 0 ? pmf[k - 1] * q : 0.0;
      pmf[k] = pmf[k] * (1.0 - q) + from_below;
    }
    survive = 0.0;
    for (const double v : pmf) survive += v;
  }
  return miss;
}

/// reference_miss_prob, memoized per geometry (single-threaded tests only).
inline const std::vector<double>& miss_prob(std::uint64_t sets,
                                            std::uint32_t assoc) {
  static std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<double>>
      tables;
  auto it = tables.find({sets, assoc});
  if (it == tables.end()) {
    it = tables.emplace(std::make_pair(sets, assoc),
                        reference_miss_prob(sets, assoc))
             .first;
  }
  return it->second;
}

/// Full-range views of a cut profile: zero past the support for the
/// per-distance arrays, the tail slot for every suffix index at or past it.
inline std::uint64_t at(const ReuseProfile& p,
                        const std::vector<std::uint64_t>& v, std::size_t d) {
  return d < p.distance_end ? v[d] : 0;
}
inline std::uint64_t suffix_at(const ReuseProfile& p,
                               const std::vector<std::uint64_t>& s,
                               std::size_t d) {
  return s[d < p.distance_end ? d : p.distance_end];
}

/// The fraction of each follower gap class inside a window of `w`.
inline std::array<double, ReuseProfile::kNumBurstClasses> fractions(double w) {
  std::array<double, ReuseProfile::kNumBurstClasses> f{};
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    const double lo = static_cast<double>(ReuseProfile::kBurstClassLo[c]);
    const double hi = static_cast<double>(ReuseProfile::kBurstClassHi[c]);
    f[c] = std::min(1.0, std::max(0.0, (w - lo) / (hi - lo)));
  }
  return f;
}

}  // namespace lpm::model::test
