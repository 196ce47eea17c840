#include "model/analytic.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/calibration.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/memo.hpp"

namespace lpm::model {

namespace {

// Heuristic constants of the concurrency/overlap estimates. They are not
// free-floating magic: the fidelity harness (src/check/fidelity.hpp) pins
// the analytic-vs-cycle error they produce, so retuning them is visible.
// A covered access only becomes a hit when its prefetch completed before
// the demand arrived — a late prefetch coalesces with the demand miss
// (prefetch_coalesced) and still counts as one. kPrefetchAlpha is the cap
// when the streamer fully keeps ahead; the effective alpha scales it by
// (prefetch lead time) / (downstream fill latency), so DRAM-fed streams
// see little miss elimination while L2-fed ones see most of the cap.
constexpr double kPrefetchAlpha = 0.93;   ///< covered misses a prefetcher removes
constexpr double kOverlapBase = 0.30;     ///< comp/mem overlap floor
constexpr double kOverlapIlp = 0.45;      ///< overlap gained from independent work
constexpr double kPurityBeta = 0.60;      ///< how strongly overlap purifies misses
constexpr double kRowHitRandom = 0.15;    ///< DRAM row-hit prob of random traffic
constexpr double kConflictDamp = 0.5;     ///< binomial conflict damping below FA capacity
constexpr double kHitBurst = 1.4;         ///< clustered-issue hit-concurrency boost
constexpr int kCamatFixedPointIters = 6;  ///< Little's-law CPI fixed point

double clampd(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

std::uint64_t to_count(double v) {
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

/// Fenwick tree over access positions; prefix_sum(i) counts marked
/// positions <= i. Marked positions are each block's latest access, so the
/// count strictly between two accesses of one block is its stack distance.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t i, int delta) {
    for (++i; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(tree_[i]) + delta);
    }
  }

  [[nodiscard]] std::uint64_t prefix(std::size_t i) const {
    std::uint64_t s = 0;
    for (++i; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

 private:
  std::vector<std::uint32_t> tree_;
};

/// P[miss] at or above this counts as certain: from the first such
/// distance on, rdh_misses adds the suffix tail instead of weighing
/// buckets.
constexpr double kMissSaturated = 1.0 - 1e-12;

/// Miss probability of an access at stack distance d in an (S, A) cache,
/// P[Binom(d, 1/S) >= A], computed by the truncated pmf recursion for
/// every d below the first distance where it saturates (kMissSaturated),
/// or up to kMaxTrackedDistance: the table's size is its saturation
/// point. Memoized per exact (S, A) pair — a design-space walk revisits
/// few geometries.
class MissProbTable {
 public:
  using Table = std::shared_ptr<const std::vector<double>>;

  static Table get(std::uint64_t sets, std::uint32_t assoc) {
    // 16 MiB holds 32 full-length (512 KiB) tables (DESIGN §11). Leaked
    // on purpose: engine workers may still evaluate while statics destruct.
    static auto* memo = new util::Memo<Geometry, Table, GeometryHash>(
        16u << 20, [](const Table& t) -> std::uint64_t {
          return t->capacity() * sizeof(double);
        });
    return memo->get_or_build({sets, assoc}, [&] {
      return std::make_shared<const std::vector<double>>(build(sets, assoc));
    }).value;
  }

 private:
  using Geometry = std::pair<std::uint64_t, std::uint32_t>;
  struct GeometryHash {
    std::size_t operator()(const Geometry& g) const {
      return std::hash<std::uint64_t>{}(g.first * 0x9e3779b97f4a7c15ull ^ g.second);
    }
  };

  static std::vector<double> build(std::uint64_t sets, std::uint32_t assoc) {
    const std::size_t n = ReuseProfile::kMaxTrackedDistance + 1;
    std::vector<double> miss;
    const double q = 1.0 / static_cast<double>(sets);
    // pmf[k] = P[Binom(d, q) = k] for k < assoc; the mass escaping past
    // assoc-1 is exactly the miss probability.
    std::vector<double> pmf(assoc, 0.0);
    pmf[0] = 1.0;
    double survive = 1.0;
    for (std::size_t d = 0; d < n; ++d) {
      const double m = 1.0 - survive;
      if (m >= kMissSaturated) break;
      miss.push_back(m);
      for (std::size_t k = assoc; k-- > 0;) {
        const double from_below = k > 0 ? pmf[k - 1] * q : 0.0;
        pmf[k] = pmf[k] * (1.0 - q) + from_below;
      }
      survive = 0.0;
      for (const double v : pmf) survive += v;
    }
    miss.shrink_to_fit();
    return miss;
  }
};

}  // namespace

ReuseProfile build_reuse_profile(const trace::WorkloadProfile& wl) {
  ReuseProfile p;
  // A stack distance counts blocks touched between two accesses, so it is
  // always below the op count: a short trace never needs the full range.
  const std::size_t tracked = static_cast<std::size_t>(
      std::min<std::uint64_t>(ReuseProfile::kMaxTrackedDistance, wl.length));
  p.hist.assign(tracked, 0);
  p.covered.assign(tracked, 0);
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    p.followers[c].assign(tracked, 0);
    p.followers_covered[c].assign(tracked, 0);
  }

  const trace::TraceSourcePtr trace_ptr = trace::make_trace(wl);
  trace::TraceSource& trace = *trace_ptr;
  Fenwick marked(wl.length + 1);
  // Per-block state: position of its latest access, plus which histogram
  // bucket the block's current burst leader landed in (so followers can
  // add their weight to the same bucket).
  constexpr std::uint32_t kColdBucket = 0xFFFFFFFFu;
  constexpr std::uint32_t kOverflowBucket =
      static_cast<std::uint32_t>(ReuseProfile::kMaxTrackedDistance);
  struct BlockState {
    std::uint64_t last_pos = 0;
    std::uint64_t leader_pos = 0;
    std::uint32_t bucket = kColdBucket;
    bool leader_covered = false;
  };
  std::unordered_map<Addr, BlockState> blocks;
  blocks.reserve(4096);

  std::vector<trace::MicroOp> chunk(4096);
  std::uint64_t mem_idx = 0;
  std::uint64_t overflow = 0;
  std::uint64_t overflow_covered = 0;
  std::array<std::uint64_t, ReuseProfile::kNumBurstClasses> overflow_followers{};
  std::array<std::uint64_t, ReuseProfile::kNumBurstClasses>
      overflow_followers_covered{};

  auto add_follower = [&](std::uint64_t gap, std::uint32_t bucket,
                          bool leader_covered) {
    std::size_t cls = 0;
    while (gap > ReuseProfile::kBurstClassHi[cls]) ++cls;
    // Cold- and overflow-leader bursts are tallied apart from the
    // per-distance arrays.
    if (bucket == kColdBucket) {
      ++p.cold_followers[cls];
      if (leader_covered) ++p.cold_followers_covered[cls];
    } else if (bucket == kOverflowBucket) {
      ++overflow_followers[cls];
      if (leader_covered) ++overflow_followers_covered[cls];
    } else {
      ++p.followers[cls][bucket];
      if (leader_covered) ++p.followers_covered[cls][bucket];
    }
  };

  for (;;) {
    const std::size_t got = trace.fill(chunk.data(), chunk.size());
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      const trace::MicroOp& op = chunk[i];
      ++p.micro_ops;
      if (!trace::is_memory(op.type)) continue;
      ++p.mem_ops;
      if (op.type == trace::OpType::kLoad) {
        ++p.loads;
      } else {
        ++p.stores;
      }
      const Addr block = op.addr / ReuseProfile::kBlockBytes;
      bool is_covered = false;
      if (block > 0) {
        if (const auto it = blocks.find(block - 1); it != blocks.end()) {
          is_covered = mem_idx - it->second.last_pos <= ReuseProfile::kCoverWindow;
        }
      }
      if (const auto it = blocks.find(block); it != blocks.end()) {
        BlockState& st = it->second;
        const std::uint64_t prev = st.last_pos;
        const std::uint64_t gap = mem_idx - st.leader_pos;
        if (gap <= ReuseProfile::kMaxBurstWindow) {
          // Follower: may ride the burst leader's outstanding fill.
          // Membership is measured from the leader — once the fill's window
          // has passed, the block is resident and reuse starts a new burst.
          add_follower(gap, st.bucket, st.leader_covered);
        } else {
          // New burst leader: distinct blocks touched strictly between the
          // two accesses decide its hit/miss.
          const std::uint64_t d = marked.prefix(mem_idx) - marked.prefix(prev);
          if (d < tracked) {
            ++p.hist[d];
            if (is_covered) ++p.covered[d];
            st.bucket = static_cast<std::uint32_t>(d);
            p.distance_end = std::max<std::size_t>(p.distance_end, d + 1);
          } else {
            ++overflow;
            if (is_covered) ++overflow_covered;
            st.bucket = kOverflowBucket;
          }
          st.leader_pos = mem_idx;
          st.leader_covered = is_covered;
        }
        marked.add(prev, -1);
        st.last_pos = mem_idx;
      } else {
        ++p.cold;
        if (is_covered) ++p.cold_covered;
        ++p.distinct_blocks;
        blocks.emplace(block,
                       BlockState{mem_idx, mem_idx, kColdBucket, is_covered});
      }
      marked.add(mem_idx, +1);
      ++mem_idx;
    }
  }

  // Cut the per-distance arrays to the support; a fresh vector releases
  // the empty tail's memory.
  const std::size_t end = p.distance_end;
  auto cut = [end](std::vector<std::uint64_t>& v) {
    v = std::vector<std::uint64_t>(v.begin(),
                                   v.begin() + static_cast<std::ptrdiff_t>(end));
  };
  // Suffix sums over the support; slot `end` holds the overflow tally.
  auto suffix_of = [end](const std::vector<std::uint64_t>& v,
                         std::uint64_t tail) {
    std::vector<std::uint64_t> s(end + 1);
    s[end] = tail;
    for (std::size_t d = end; d-- > 0;) s[d] = s[d + 1] + v[d];
    return s;
  };
  cut(p.hist);
  cut(p.covered);
  p.suffix = suffix_of(p.hist, overflow);
  p.suffix_covered = suffix_of(p.covered, overflow_covered);
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    cut(p.followers[c]);
    cut(p.followers_covered[c]);
    p.suffix_followers[c] = suffix_of(p.followers[c], overflow_followers[c]);
    p.suffix_followers_covered[c] =
        suffix_of(p.followers_covered[c], overflow_followers_covered[c]);
  }
  p.buckets.reserve(static_cast<std::size_t>(
      std::count_if(p.hist.begin(), p.hist.end(),
                    [](std::uint64_t h) { return h != 0; })));
  for (std::size_t d = 0; d < end; ++d) {
    if (p.hist[d] == 0) continue;
    ReuseProfile::Bucket b;
    b.distance = d;
    b.hist = static_cast<double>(p.hist[d]);
    b.covered = static_cast<double>(p.covered[d]);
    std::uint64_t cum = 0;
    std::uint64_t cum_covered = 0;
    for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
      cum += p.followers[c][d];
      cum_covered += p.followers_covered[c][d];
      b.cum_followers[c] = static_cast<double>(cum);
      b.cum_followers_covered[c] = static_cast<double>(cum_covered);
    }
    p.buckets.push_back(b);
  }
  return p;
}

std::array<double, ReuseProfile::kNumBurstClasses> burst_fractions(double w) {
  std::array<double, ReuseProfile::kNumBurstClasses> f{};
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    const double lo = static_cast<double>(ReuseProfile::kBurstClassLo[c]);
    const double hi = static_cast<double>(ReuseProfile::kBurstClassHi[c]);
    f[c] = clampd((w - lo) / (hi - lo), 0.0, 1.0);
  }
  return f;
}

MissEstimate fa_misses(const ReuseProfile& p, std::uint64_t capacity_blocks,
                       double prefetch_alpha, double burst_window) {
  const std::size_t c = p.tail(std::max<std::uint64_t>(capacity_blocks, 1));
  const auto frac = burst_fractions(burst_window);
  MissEstimate e;
  const double fills = static_cast<double>(p.cold + p.suffix[c]);
  const double fills_cov =
      static_cast<double>(p.cold_covered + p.suffix_covered[c]);
  double foll = 0.0;
  double foll_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    foll += frac[cl] * static_cast<double>(p.cold_followers[cl] +
                                           p.suffix_followers[cl][c]);
    foll_cov += frac[cl] * static_cast<double>(
                               p.cold_followers_covered[cl] +
                               p.suffix_followers_covered[cl][c]);
  }
  e.fills = std::max(0.0, fills - prefetch_alpha * fills_cov);
  e.demand =
      std::max(0.0, fills + foll - prefetch_alpha * (fills_cov + foll_cov));
  return e;
}

namespace {

constexpr bool burst_classes_contiguous() {
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    const std::uint64_t below = c == 0 ? 0 : ReuseProfile::kBurstClassHi[c - 1];
    if (ReuseProfile::kBurstClassLo[c] != below ||
        ReuseProfile::kBurstClassLo[c] >= ReuseProfile::kBurstClassHi[c]) {
      return false;
    }
  }
  return true;
}
static_assert(burst_classes_contiguous(),
              "BurstWeight needs each gap class to start where the one "
              "below it ends");

/// burst_fractions(w) in the shape the bucket pass uses: 1 on every class
/// below `k`, `frac` on class k, +0 above it.
///
/// The general weighted sum over a bucket's classes,
///   ((((0 + f0*x0) + f1*x1) + f2*x2) + f3*x3),
/// then equals cum[k-1] + frac * x[k] bit for bit: 1*x = x, and the sum of
/// the first k terms is an integer below 2^53, so it is exact and equal to
/// the stored cum[k-1]; x[k] = cum[k] - cum[k-1] is exact for the same
/// reason; and every term above k is +0, which leaves a sum >= +0 as it
/// is. No sum is reassociated.
struct BurstWeight {
  std::size_t k = 0;
  double frac = 0.0;

  explicit BurstWeight(
      const std::array<double, ReuseProfile::kNumBurstClasses>& f) {
    while (k + 1 < f.size() && f[k] == 1.0) ++k;
    frac = f[k];
    for (std::size_t c = 0; c < f.size(); ++c) {
      util::require(c < k ? f[c] == 1.0 : c == k || f[c] == 0.0,
                    "BurstWeight: burst fractions are not a 1..frac..0 step");
    }
  }

  /// A bucket's followers inside the window, from its cumulative counts.
  [[nodiscard]] double of(
      const std::array<double, ReuseProfile::kNumBurstClasses>& cum) const {
    const double below = k == 0 ? 0.0 : cum[k - 1];
    return below + frac * (cum[k] - below);
  }
};

/// An (S >= 2, A) cache's miss probabilities resolved against one profile:
/// the effective P[miss] of every bucket below the saturation point, in
/// bucket order, so a bucket pass reads it in step with p.buckets.
struct BucketWeights {
  /// The table ends where P[miss] saturates at 1: every leader from here
  /// on misses, so the rest is the suffix tail. Below it, only non-empty
  /// buckets add anything — an empty one has no leaders and no followers.
  std::size_t saturated = 0;
  /// effective[i] weighs p.buckets[i]; one entry per bucket below
  /// `saturated`.
  std::vector<double> effective;

  BucketWeights(const ReuseProfile& p, std::uint64_t sets,
                std::uint32_t associativity) {
    const MissProbTable::Table miss_prob =
        MissProbTable::get(sets, associativity);
    const std::uint64_t capacity =
        sets * static_cast<std::uint64_t>(associativity);
    saturated = std::min(miss_prob->size(), p.distance_end);
    const auto end = std::lower_bound(
        p.buckets.begin(), p.buckets.end(), saturated,
        [](const ReuseProfile::Bucket& b, std::size_t d) {
          return b.distance < d;
        });
    effective.reserve(static_cast<std::size_t>(end - p.buckets.begin()));
    for (auto b = p.buckets.begin(); b != end; ++b) {
      // Below FA capacity the binomial (random-mapping) model overpredicts:
      // real address streams index sets far more uniformly than random, so
      // only a damped fraction of the predicted conflicts materialize.
      const double pm = (*miss_prob)[b->distance];
      effective.push_back(b->distance < capacity ? kConflictDamp * pm : pm);
    }
  }
};

/// The `fills` pass of rdh_misses: burst leaders only, so it reads no
/// follower count and no coalescing window.
double rdh_fills(const ReuseProfile& p, const BucketWeights& w,
                 double prefetch_alpha) {
  double fills = static_cast<double>(p.cold) -
                 prefetch_alpha * static_cast<double>(p.cold_covered);
  for (std::size_t i = 0; i < w.effective.size(); ++i) {
    const ReuseProfile::Bucket& b = p.buckets[i];
    fills += w.effective[i] * (b.hist - prefetch_alpha * b.covered);
  }
  fills += static_cast<double>(p.suffix[w.saturated]) -
           prefetch_alpha * static_cast<double>(p.suffix_covered[w.saturated]);
  return std::max(0.0, fills);
}

/// The `demand` pass of rdh_misses: every access of a missing burst inside
/// the coalescing window.
double rdh_demand(const ReuseProfile& p, const BucketWeights& w,
                  double prefetch_alpha, double burst_window) {
  const auto frac = burst_fractions(burst_window);
  const BurstWeight weight(frac);
  double foll_cold = 0.0;
  double foll_cold_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    foll_cold += frac[cl] * static_cast<double>(p.cold_followers[cl]);
    foll_cold_cov +=
        frac[cl] * static_cast<double>(p.cold_followers_covered[cl]);
  }
  double demand = static_cast<double>(p.cold) + foll_cold -
                  prefetch_alpha *
                      (static_cast<double>(p.cold_covered) + foll_cold_cov);

  for (std::size_t i = 0; i < w.effective.size(); ++i) {
    const ReuseProfile::Bucket& b = p.buckets[i];
    const double f = weight.of(b.cum_followers);
    const double f_cov = weight.of(b.cum_followers_covered);
    demand += w.effective[i] *
              (b.hist + f - prefetch_alpha * (b.covered + f_cov));
  }
  const std::size_t saturated = w.saturated;
  double f = 0.0, f_cov = 0.0;
  for (std::size_t cl = 0; cl < ReuseProfile::kNumBurstClasses; ++cl) {
    f += frac[cl] * static_cast<double>(p.suffix_followers[cl][saturated]);
    f_cov += frac[cl] *
             static_cast<double>(p.suffix_followers_covered[cl][saturated]);
  }
  demand += static_cast<double>(p.suffix[saturated]) + f -
            prefetch_alpha *
                (static_cast<double>(p.suffix_covered[saturated]) + f_cov);
  return std::max(0.0, demand);
}

}  // namespace

MissEstimate rdh_misses(const ReuseProfile& p, std::uint64_t sets,
                        std::uint32_t associativity, double prefetch_alpha,
                        double burst_window) {
  util::require(sets >= 1 && associativity >= 1,
                "rdh_misses: bad cache geometry");
  if (sets == 1) {
    // Degenerate to the exact fully-associative answer.
    return fa_misses(p, associativity, prefetch_alpha, burst_window);
  }
  const BucketWeights w(p, sets, associativity);
  MissEstimate e;
  e.fills = rdh_fills(p, w, prefetch_alpha);
  e.demand = rdh_demand(p, w, prefetch_alpha, burst_window);
  return e;
}

// --- profile cache ----------------------------------------------------------

ProfileCache& ProfileCache::global() {
  static ProfileCache cache;
  return cache;
}

std::uint64_t ProfileCache::footprint(const ReuseProfile& p) {
  std::uint64_t words = p.hist.capacity() + p.covered.capacity() +
                        p.suffix.capacity() + p.suffix_covered.capacity();
  for (std::size_t c = 0; c < ReuseProfile::kNumBurstClasses; ++c) {
    words += p.followers[c].capacity() + p.followers_covered[c].capacity() +
             p.suffix_followers[c].capacity() +
             p.suffix_followers_covered[c].capacity();
  }
  return sizeof(ReuseProfile) + words * sizeof(std::uint64_t) +
         p.buckets.capacity() * sizeof(ReuseProfile::Bucket);
}

std::shared_ptr<const ReuseProfile> ProfileCache::reuse(
    const trace::WorkloadProfile& wl) {
  // Concurrent misses on one workload run one trace replay; profiles of
  // different workloads build in parallel.
  Memo::Found found = memo_.get_or_build(util::fingerprint(wl), [&] {
    return std::make_shared<const ReuseProfile>(build_reuse_profile(wl));
  });
  (found.built ? builds_counter_ : hits_counter_).inc();
  return std::move(found.value);
}

sim::CpiExeResult ProfileCache::calibration(const sim::MachineConfig& machine,
                                             const trace::WorkloadProfile& wl) {
  return sim::cached_cpi_exe(machine, wl);
}

std::uint64_t ProfileCache::profile_builds() const { return memo_.builds(); }

std::uint64_t ProfileCache::bytes() const { return memo_.bytes(); }

std::uint64_t ProfileCache::calibration_runs() const {
  return sim::calibration_runs();
}

// --- analytic evaluation ----------------------------------------------------

namespace {

/// Closed-form miss model for one cache level under one backend, resolved
/// against one profile: an rdh level weighs that profile's buckets here,
/// and every pass over the same profile reuses the weights.
class LevelModel {
 public:
  LevelModel(const std::string& backend, const mem::CacheConfig& c,
             std::uint32_t share, const ReuseProfile& p) {
    if (backend == kFaBackend) {
      fa_blocks_ =
          std::max<std::uint64_t>(1, c.size_bytes / c.block_bytes / share);
      return;
    }
    const std::uint64_t sets = std::max<std::uint64_t>(1, c.num_sets() / share);
    util::require(c.associativity >= 1, "rdh_misses: bad cache geometry");
    if (sets == 1) {
      // Degenerate to the exact fully-associative answer.
      fa_blocks_ = c.associativity;
    } else {
      rdh_.emplace(p, sets, c.associativity);
    }
  }

  /// Unique fills sent downstream; the coalescing window does not enter.
  [[nodiscard]] double fills(const ReuseProfile& p, double alpha) const {
    return rdh_ ? rdh_fills(p, *rdh_, alpha)
                : fa_misses(p, fa_blocks_, alpha).fills;
  }

  /// Misses as the demand MR counts them, coalesced repeats included.
  [[nodiscard]] double demand(const ReuseProfile& p, double alpha,
                              double burst_window) const {
    return rdh_ ? rdh_demand(p, *rdh_, alpha, burst_window)
                : fa_misses(p, fa_blocks_, alpha, burst_window).demand;
  }

  /// Bytes of the bucket weights this model keeps alive.
  [[nodiscard]] std::uint64_t weight_bytes() const {
    return rdh_ ? rdh_->effective.capacity() * sizeof(double) : 0;
  }

 private:
  std::optional<BucketWeights> rdh_;
  std::uint64_t fa_blocks_ = 0;
};

/// The L1 demand passes one evaluation context has run, keyed by the full
/// bits of their two inputs besides the context: the prefetch alpha and
/// the coalescing window. A pass is a pure function of the context's
/// profile and L1 model and those two doubles, so a stored result is the
/// very double the pass would compute again.
///
/// Fixed size and lock-free: an entry is claimed by a CAS on its window
/// word, written, then published by a release store of the window bits;
/// it never changes afterwards, so a hit only reads. A lookup probes
/// kProbes slots from the keys' hash; a full probe sequence, a slot
/// another caller is still writing, or a claim lost to another caller
/// only costs computing the pass without storing it.
class DemandMemo {
 public:
  static constexpr std::size_t kSlots = kDemandMemoSlots;
  static_assert(std::has_single_bit(kSlots), "the slot count masks a hash");

  /// pass(), or the result of an earlier pass with the same inputs; `hit`
  /// says which.
  template <typename Pass>
  double get_or_run(double alpha, double burst_window, Pass&& pass,
                    bool& hit) const {
    const std::uint64_t a = std::bit_cast<std::uint64_t>(alpha);
    const std::uint64_t w = std::bit_cast<std::uint64_t>(burst_window);
    hit = false;
    const std::size_t start = static_cast<std::size_t>(
        ((a ^ (w * 0x9e3779b97f4a7c15ull)) * 0xbf58476d1ce4e5b9ull) >>
        (64 - std::countr_zero(kSlots)));
    for (std::size_t i = 0; i < kProbes; ++i) {
      Slot& s = slots_[(start + i) & (kSlots - 1)];
      std::uint64_t seen = s.window.load(std::memory_order_acquire);
      if (seen == kEmpty) {
        if (!s.window.compare_exchange_strong(seen, kClaimed,
                                              std::memory_order_relaxed)) {
          break;
        }
        const double demand = pass();
        s.alpha.store(a, std::memory_order_relaxed);
        s.demand.store(std::bit_cast<std::uint64_t>(demand),
                       std::memory_order_relaxed);
        s.window.store(w, std::memory_order_release);
        return demand;
      }
      if (seen == w && s.alpha.load(std::memory_order_relaxed) == a) {
        hit = true;
        return std::bit_cast<double>(s.demand.load(std::memory_order_relaxed));
      }
      if (seen == kClaimed) break;
    }
    return pass();
  }

 private:
  static constexpr std::size_t kProbes = 16;
  /// Window words no key has: evaluate_core clamps every window to
  /// [1, kMaxBurstWindow], and these are the bits of +0.0 and of a NaN.
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kClaimed = ~std::uint64_t{0};

  struct Slot {
    std::atomic<std::uint64_t> window{kEmpty};
    std::atomic<std::uint64_t> alpha{0};
    std::atomic<std::uint64_t> demand{0};
  };
  mutable std::array<Slot, kSlots> slots_;
};

/// What every evaluation of one core's workload on one cache geometry
/// shares, resolved once and immutable afterwards apart from the demand
/// memo. The key below names every input of every field, so two jobs with
/// one key get equal fields, and an evaluation computes from them exactly
/// what it would compute from fresh lookups: the same doubles from the
/// same operations.
struct EvalContext {
  /// The profile the L1 weights were computed against. Held weakly: a
  /// context neither keeps an evicted profile alive nor stops
  /// ProfileCache from rebuilding it, and a rebuilt profile is equal.
  std::weak_ptr<const ReuseProfile> profile;
  sim::CpiExeResult calib;
  LevelModel l1;
  /// The alpha-0 fill passes of L1, the private L2 (three-level machines
  /// only) and the shared L2 slice of one core.
  double m1_traffic = 0.0;
  double m2p_fills = 0.0;
  double m2_fills = 0.0;
  /// l1.demand() passes run on this context so far.
  DemandMemo l1_demand;

  /// Bytes this context keeps alive: itself (the demand memo included),
  /// its L1 weights, and the profile's record, which the weak reference
  /// holds (make_shared puts the control block and the record in one
  /// allocation).
  [[nodiscard]] std::uint64_t footprint() const {
    return sizeof(EvalContext) + l1.weight_bytes() + sizeof(ReuseProfile);
  }
};

using ContextPtr = std::shared_ptr<const EvalContext>;

util::Memo<std::uint64_t, ContextPtr>& contexts() {
  // Leaked on purpose: engine workers may still evaluate while statics
  // destruct.
  static auto* memo = new util::Memo<std::uint64_t, ContextPtr>(
      kEvalContextBudgetBytes,
      [](const ContextPtr& c) -> std::uint64_t { return c->footprint(); });
  return *memo;
}

/// The counters of evaluate_core's L1 demand passes, resolved once: a
/// lookup by name takes the registry's mutex.
struct DemandCounters {
  obs::MetricsRegistry::Counter passes =
      obs::MetricsRegistry::global().counter("model.backend.l1_demand_passes");
  obs::MetricsRegistry::Counter memo_hits =
      obs::MetricsRegistry::global().counter(
          "model.backend.l1_demand_memo_hits");
};

DemandCounters& demand_counters() {
  // Leaked on purpose: engine workers may still evaluate while statics
  // destruct.
  static auto* counters = new DemandCounters;
  return *counters;
}

/// Everything an EvalContext is computed from: the profile (workload
/// fingerprint), the calibration (calibration_key), the backend, the L1,
/// private-L2 and shared-L2 geometries, and the core count that slices
/// the shared L2.
std::uint64_t context_key(const exp::SimJob& job,
                          const trace::WorkloadProfile& wl) {
  const sim::MachineConfig& mc = job.machine;
  const std::uint64_t workload = util::fingerprint(wl);
  util::Fingerprint f;
  f.mix("model::EvalContext/v1")
      .mix(job.backend)
      .mix_u64(workload)
      .mix_u64(sim::calibration_key(mc, workload));
  for (const mem::CacheConfig* c : {&mc.l1, &mc.private_l2, &mc.l2}) {
    f.mix_u64(c->size_bytes).mix(c->block_bytes).mix(c->associativity);
  }
  f.mix(mc.use_private_l2).mix(std::max(1u, mc.num_cores));
  return f.value();
}

ContextPtr build_context(const exp::SimJob& job,
                         const trace::WorkloadProfile& wl,
                         const sim::RunGuard* guard) {
  const sim::MachineConfig& mc = job.machine;
  const std::shared_ptr<const ReuseProfile> profile =
      ProfileCache::global().reuse(wl);
  const ReuseProfile& p = *profile;
  // CPIexe comes from the real perfect-cache calibration (cached across
  // cache geometries); the cache behaviour itself never ticks a cycle.
  const sim::CpiExeResult calib = sim::cached_cpi_exe(mc, wl, guard);
  LevelModel l1(job.backend, mc.l1, 1, p);
  const double m1_traffic = l1.fills(p, 0.0);
  const double m2p_fills =
      mc.use_private_l2
          ? LevelModel(job.backend, mc.private_l2, 1, p).fills(p, 0.0)
          : 0.0;
  const std::uint32_t cores = std::max(1u, mc.num_cores);
  const double m2_fills =
      LevelModel(job.backend, mc.l2, cores, p).fills(p, 0.0);
  return std::make_shared<const EvalContext>(profile, calib, std::move(l1),
                                             m1_traffic, m2p_fills, m2_fills);
}

/// The context of core `wl` in `job`, built on the first evaluation that
/// needs it. A cancelled guard throws util::TimeoutError whether the
/// context is stored, being built by another caller, or missing, and a
/// cancelled build stores nothing.
ContextPtr eval_context(const exp::SimJob& job,
                        const trace::WorkloadProfile& wl,
                        const sim::RunGuard* guard) {
  if (guard != nullptr && guard->cancel.load(std::memory_order_relaxed)) {
    throw util::TimeoutError("analytic evaluation cancelled (job '" +
                             job.tag + "')");
  }
  return contexts()
      .get_or_build(context_key(job, wl),
                    [&] { return build_context(job, wl, guard); },
                    guard != nullptr ? &guard->cancel : nullptr)
      .value;
}

/// Synthesizes a counter block whose derived parameters reproduce the
/// intended (H, CH, MR, purity, CM) and whose Eq. 2 / Eq. 3 identities
/// hold exactly (active := hit + pure-miss cycles; hit_access_cycles :=
/// hit_phase_access_cycles; Cm := CM).
camat::CamatMetrics synth_level(std::uint64_t accesses, double H, double CH,
                                double MR, double purity, double CM,
                                double camat_down_per_miss) {
  camat::CamatMetrics m;
  m.accesses = accesses;
  if (accesses == 0) return m;
  const double a = static_cast<double>(accesses);
  m.misses = std::min<std::uint64_t>(accesses, to_count(MR * a));
  m.hits = accesses - m.misses;
  m.hit_phase_access_cycles = std::max<std::uint64_t>(1, to_count(a * H));
  m.hit_access_cycles = m.hit_phase_access_cycles;
  m.hit_cycles = std::max<std::uint64_t>(
      1, to_count(static_cast<double>(m.hit_phase_access_cycles) / CH));
  if (m.misses > 0) {
    const double amp = std::max(1.0, CM * camat_down_per_miss);
    m.total_miss_latency =
        std::max<std::uint64_t>(m.misses, to_count(static_cast<double>(m.misses) * amp));
    m.miss_access_cycles = m.total_miss_latency;
    m.miss_cycles = std::max<std::uint64_t>(
        1, to_count(static_cast<double>(m.miss_access_cycles) / CM));
    m.pure_misses = std::min<std::uint64_t>(
        m.misses, to_count(purity * static_cast<double>(m.misses)));
    if (m.pure_misses > 0) {
      m.pure_access_cycles = std::max<std::uint64_t>(
          m.pure_misses,
          to_count(static_cast<double>(m.pure_misses) * purity * amp));
      m.pure_miss_cycles = std::min<std::uint64_t>(
          m.miss_cycles,
          std::max<std::uint64_t>(
              1, to_count(static_cast<double>(m.pure_access_cycles) / CM)));
    }
  }
  m.active_cycles = m.hit_cycles + m.pure_miss_cycles;
  return m;
}

mem::CacheStats synth_cache_stats(std::uint64_t accesses, std::uint64_t misses,
                                  std::vector<std::uint64_t> per_core_accesses,
                                  std::vector<std::uint64_t> per_core_misses,
                                  std::uint64_t mshr_wait_cycles) {
  mem::CacheStats s;
  s.accesses = accesses;
  s.misses = misses;
  s.hits = accesses - misses;
  s.fills = misses;
  s.mshr_full_waits = mshr_wait_cycles;
  s.core_accesses = std::move(per_core_accesses);
  s.core_misses = std::move(per_core_misses);
  return s;
}

/// Everything the per-core chain computation produces.
struct CoreChain {
  // Demand traffic / demand misses per level (L1 outward).
  std::uint64_t a1 = 0, m1 = 0;
  std::uint64_t a2p = 0, m2p = 0;  ///< private L2 (three-level only)
  std::uint64_t a2 = 0, m2 = 0;    ///< shared L2 / LLC
  std::uint64_t a3 = 0;            ///< DRAM accesses
  camat::CamatMetrics l1, l2p, l2, dram;
  cpu::CoreStats stats;
  double mshr_pressure_cycles = 0.0;
  /// L1 demand passes the fixed point ran, and those the context's memo
  /// answered instead.
  std::uint64_t demand_passes = 0;
  std::uint64_t demand_memo_hits = 0;
};

struct LevelShape {
  double H = 1.0;
  double CH = 1.0;
  double purity = 1.0;
  double CM = 1.0;
};

CoreChain evaluate_core(const exp::SimJob& job, const trace::WorkloadProfile& wl,
                        const ReuseProfile& p, const EvalContext& ctx) {
  const sim::MachineConfig& mc = job.machine;
  const sim::CpiExeResult& calib = ctx.calib;
  CoreChain out;

  // --- fill traffic, top-down (no prefetch correction) ---------------------
  // Downstream traffic is unique fills (the MSHR dedups the burst), and
  // prefetch-eliminated demand misses are still fetched from below. Below
  // L1 the burst is already coalesced: every level sees the unique fill
  // stream, so fills-based estimates drive both misses and traffic.
  out.a1 = p.mem_ops;
  const double m1_traffic = ctx.m1_traffic;
  double upstream_traffic = std::max(m1_traffic, 1.0);
  double upstream_misses = m1_traffic;
  if (mc.use_private_l2) {
    out.a2p = to_count(upstream_traffic);
    const double m2p = std::min(upstream_misses, ctx.m2p_fills);
    out.m2p = std::min<std::uint64_t>(out.a2p, to_count(m2p));
    upstream_traffic = std::max(m2p, 0.0);
    upstream_misses = m2p;
  }
  out.a2 = to_count(std::max(upstream_traffic, 0.0));
  const double m2 = std::min(upstream_misses, ctx.m2_fills);
  out.m2 = std::min<std::uint64_t>(out.a2, to_count(m2));
  out.a3 = out.m2;

  // DRAM service latency per access: row-hit probability from the
  // workload's spatial locality (streams walk open rows).
  const double seq = clampd(wl.seq_fraction, 0.0, 1.0);
  const double blocks_per_row = std::max(
      1.0, static_cast<double>(mc.dram.row_bytes) /
               static_cast<double>(ReuseProfile::kBlockBytes));
  const double row_hit =
      clampd(seq * (1.0 - 1.0 / blocks_per_row) + (1.0 - seq) * kRowHitRandom,
             0.0, 0.95);
  const double dram_service =
      static_cast<double>(mc.dram.frontend_latency + mc.dram.t_cl +
                          mc.dram.t_burst) +
      (1.0 - row_hit) * static_cast<double>(mc.dram.t_rcd + mc.dram.t_rp);

  // --- demand misses with the prefetch correction --------------------------
  // Where do L1 fills come from, and how long do they stay outstanding?
  const double next_hit_latency = static_cast<double>(
      mc.use_private_l2 ? mc.private_l2.hit_latency : mc.l2.hit_latency);
  const double dram_frac = clampd(
      static_cast<double>(out.a3) / std::max(1.0, m1_traffic), 0.0, 1.0);
  const double fill_latency = std::max(
      1.0, (1.0 - dram_frac) * next_hit_latency + dram_frac * dram_service);
  // The coalescing window (memory accesses issued while one fill is
  // outstanding) and the streamer's usable lead time both depend on the
  // achieved CPI — which depends on C-AMAT1, which depends on the demand
  // misses. The fixed point below re-estimates all three per iteration:
  // memory-bound workloads stall, which slows the issue rate and shrinks
  // the window toward what the simulator actually coalesces.
  const double leaders =
      std::max(1.0, static_cast<double>(p.cold + p.suffix[0]));
  const double mean_burst =
      static_cast<double>(p.mem_ops) / leaders;  // accesses per block

  // --- concurrency / latency shapes ----------------------------------------
  const double chase = clampd(wl.pointer_chase_fraction, 0.0, 1.0);
  const double dep = clampd(wl.alu_dep_fraction, 0.0, 1.0);
  const double fmem = p.fmem();
  // Independent in-flight misses the core can sustain (LSQ window scaled
  // by the fraction of loads that are not serially dependent).
  const double core_mlp = std::max(
      1.0, 1.0 + (1.0 - chase) *
                     (0.5 * static_cast<double>(mc.core.lsq_size) - 1.0));
  const double overlap =
      clampd(kOverlapBase + kOverlapIlp * (1.0 - chase) * (1.0 - 0.5 * dep) -
                 0.25 * fmem,
             0.05, 0.95);
  const double purity = clampd(1.0 - kPurityBeta * overlap, 0.15, 1.0);

  // Miss concurrency narrows down the hierarchy: each level's MSHR file
  // caps it, DRAM banks cap the bottom.
  double conc = core_mlp;
  conc = std::min(conc, static_cast<double>(std::max(1u, mc.l1.mshr_entries)));
  const double cm1 = std::max(1.0, conc);
  if (mc.use_private_l2) {
    conc = std::min(conc,
                    static_cast<double>(std::max(1u, mc.private_l2.mshr_entries)));
  }
  const double cm2p = std::max(1.0, conc);
  conc = std::min(conc, static_cast<double>(std::max(1u, mc.l2.mshr_entries)));
  const double cm2 = std::max(1.0, conc);
  conc = std::min(conc, static_cast<double>(std::max(1u, mc.dram.banks)));
  const double cm_dram = std::max(1.0, conc);

  const double instr = std::max<double>(1.0, static_cast<double>(p.micro_ops));
  double mr1 = 0.0;

  // --- Little's-law fixed point for the hit concurrencies ------------------
  // Access rate per cycle needs the CPI, which needs C-AMAT1, which needs
  // CH: iterate the closed-form chain a few times from CPIexe.
  LevelShape l1s, l2ps, l2s;
  double camat1 = static_cast<double>(mc.l1.hit_latency);
  double cpi = std::max(0.1, calib.cpi_exe);
  double dram_sojourn = dram_service;
  double mshr_over = 1.0;
  for (int iter = 0; iter < kCamatFixedPointIters; ++iter) {
    // Demand misses at the current CPI estimate: the issue rate while a
    // fill is outstanding sets the coalescing window, and the streamer
    // eliminates a covered missing burst only when its prefetch completes
    // before the stream reaches the block (lead = degree x cycles the
    // core spends per block, need = the fill latency).
    const double mem_rate = std::max(0.05, fmem) / cpi;
    const double burst_window =
        clampd(fill_latency * mem_rate, 1.0, ReuseProfile::kMaxBurstWindow);
    // Demand-fill MSHR occupancy (Little's law): oversubscription both
    // starves the prefetcher and serializes misses behind a full file.
    const double fill_rate = m1_traffic / instr / cpi;  // fills per cycle
    const double mshr_util =
        fill_rate * fill_latency /
        static_cast<double>(std::max(1u, mc.l1.mshr_entries));
    double alpha1 = 0.0;
    if (mc.l1.prefetch_degree > 0 && m1_traffic > 0.0) {
      const double cycles_per_block = mean_burst / mem_rate;
      const double lead =
          static_cast<double>(mc.l1.prefetch_degree) * cycles_per_block;
      // A prefetch needs a free MSHR entry: when demand fills already keep
      // the file near-full (DRAM-bound streams), the streamer is starved
      // and the simulator eliminates almost nothing. Quadratic in the
      // utilization: a half-full file still has a free entry most cycles.
      const double mshr_free = clampd(1.0 - mshr_util * mshr_util, 0.0, 1.0);
      alpha1 = kPrefetchAlpha * std::min(1.0, lead / fill_latency) * mshr_free;
    }
    bool hit = false;
    const double m1 = ctx.l1_demand.get_or_run(
        alpha1, burst_window,
        [&] { return ctx.l1.demand(p, alpha1, burst_window); }, hit);
    ++(hit ? out.demand_memo_hits : out.demand_passes);
    out.m1 = std::min<std::uint64_t>(out.a1, to_count(m1));
    mr1 = static_cast<double>(out.m1) /
          std::max(1.0, static_cast<double>(out.a1));

    auto hit_conc = [&](double accesses, const mem::CacheConfig& c) {
      const double rate = accesses / instr / cpi;  // accesses per cycle
      const double h = static_cast<double>(c.hit_latency);
      // kHitBurst > 1: a superscalar front end issues memory ops in
      // clumps, so the concurrency *while hits are in flight* exceeds the
      // time-averaged Little's-law value.
      return clampd(rate * h * kHitBurst, 1.0,
                    std::max(1.0, static_cast<double>(c.ports) * h));
    };
    l1s = {static_cast<double>(mc.l1.hit_latency),
           hit_conc(static_cast<double>(out.a1), mc.l1), purity, cm1};
    if (mc.use_private_l2) {
      l2ps = {static_cast<double>(mc.private_l2.hit_latency),
              hit_conc(static_cast<double>(out.a2p), mc.private_l2), purity,
              cm2p};
    }
    l2s = {static_cast<double>(mc.l2.hit_latency),
           hit_conc(static_cast<double>(out.a2), mc.l2), purity, cm2};

    // DRAM queueing: at high bank utilization the sojourn time inflates
    // past the raw service time (M/D/1 mean wait = rho*s / (2(1-rho))).
    const double dram_rate = static_cast<double>(out.a3) / instr / cpi;
    const double rho = clampd(
        dram_rate * dram_service /
            static_cast<double>(std::max(1u, mc.dram.banks)),
        0.0, 0.95);
    dram_sojourn = dram_service * (1.0 + rho / (2.0 * (1.0 - rho)));
    const double camat_dram = dram_sojourn / cm_dram;
    // Per-miss C-AMAT of each downstream level (active / upstream misses).
    const double dram_active = static_cast<double>(out.a3) * camat_dram;
    const double camat_dram_pm =
        dram_active / std::max(1.0, static_cast<double>(out.m2));
    const double camat2 =
        l2s.H / l2s.CH +
        purity * purity *
            (static_cast<double>(out.m2) /
             std::max(1.0, static_cast<double>(out.a2))) *
            camat_dram_pm;
    double camat_up_pm = static_cast<double>(out.a2) * camat2 /
                         std::max(1.0, static_cast<double>(
                                           mc.use_private_l2 ? out.m2p : out.m1));
    if (mc.use_private_l2) {
      const double camat2p =
          l2ps.H / l2ps.CH +
          purity * purity *
              (static_cast<double>(out.m2p) /
               std::max(1.0, static_cast<double>(out.a2p))) *
              camat_up_pm;
      camat_up_pm = static_cast<double>(out.a2p) * camat2p /
                    std::max(1.0, static_cast<double>(out.m1));
    }
    // A demand-fill rate past the MSHR file's capacity serializes misses
    // behind it: each waits out the backlog before it can even allocate.
    mshr_over = std::max(1.0, mshr_util);
    camat1 = l1s.H / l1s.CH + purity * purity * mr1 * camat_up_pm * mshr_over;
    // Damped update: the window->misses->CPI feedback is two-way, and an
    // undamped step can oscillate between the stalled and unstalled rates.
    const double cpi_next =
        std::max(0.1, calib.cpi_exe + fmem * camat1 * (1.0 - overlap));
    cpi = 0.5 * (cpi + cpi_next);
  }

  // --- counter synthesis, bottom-up ----------------------------------------
  out.dram = synth_level(out.a3, dram_sojourn, cm_dram, 0.0, 1.0, 1.0, 0.0);
  const double dram_pm = static_cast<double>(out.dram.active_cycles) /
                         std::max(1.0, static_cast<double>(out.m2));
  out.l2 = synth_level(out.a2, l2s.H, l2s.CH,
                       static_cast<double>(out.m2) /
                           std::max(1.0, static_cast<double>(out.a2)),
                       purity, cm2, dram_pm);
  double up_pm = static_cast<double>(out.l2.active_cycles) /
                 std::max(1.0, static_cast<double>(
                                   mc.use_private_l2 ? out.m2p : out.m1));
  if (mc.use_private_l2) {
    out.l2p = synth_level(out.a2p, l2ps.H, l2ps.CH,
                          static_cast<double>(out.m2p) /
                              std::max(1.0, static_cast<double>(out.a2p)),
                          purity, cm2p, up_pm);
    up_pm = static_cast<double>(out.l2p.active_cycles) /
            std::max(1.0, static_cast<double>(out.m1));
  }
  // The MSHR-full backlog is part of what the L1 counters measure as miss
  // time, so the synthesized per-miss AMP carries the same inflation.
  out.l1 = synth_level(out.a1, l1s.H, l1s.CH, mr1, purity, cm1,
                       up_pm * mshr_over);

  // --- core stats consistent with Eq. 5 / Eq. 7 ----------------------------
  cpu::CoreStats& cs = out.stats;
  cs.instructions = p.micro_ops;
  cs.mem_ops = p.mem_ops;
  cs.loads = p.loads;
  cs.stores = p.stores;
  cs.mem_active_cycles = out.l1.active_cycles;
  cs.overlap_cycles = std::min<std::uint64_t>(
      cs.mem_active_cycles,
      to_count(overlap * static_cast<double>(cs.mem_active_cycles)));
  cs.data_stall_cycles = cs.mem_active_cycles - cs.overlap_cycles;
  const std::uint64_t exe_cycles =
      std::max<std::uint64_t>(1, to_count(calib.cpi_exe * instr));
  cs.cycles = exe_cycles + cs.data_stall_cycles;
  cs.commit_cycles = exe_cycles;
  cs.head_mem_stall_cycles = cs.data_stall_cycles;
  cs.l1_rejections = 0;

  // MSHR-pressure signal for the concurrency diagnosis: how many wanted
  // in-flight misses the L1 MSHR file turns away, scaled to miss cycles.
  const double want = std::max(
      1.0, 1.0 + (1.0 - chase) *
                     (0.5 * static_cast<double>(mc.core.lsq_size) - 1.0));
  const double have = static_cast<double>(std::max(1u, mc.l1.mshr_entries));
  if (want > have) {
    out.mshr_pressure_cycles = (want - have) / want *
                               static_cast<double>(out.l1.miss_cycles);
  }
  return out;
}

}  // namespace

exp::SimJobResult evaluate_analytic(const exp::SimJob& job,
                                    const sim::RunGuard* guard) {
  util::require(job.backend == kRdhBackend || job.backend == kFaBackend,
                "evaluate_analytic: backend must be rdh or fa, got '" +
                    job.backend + "'");
  register_analytic_executors();
  job.validate();

  exp::SimJobResult out;
  out.backend = job.backend;
  sim::SystemResult& run = out.run;
  run.completed = true;

  const std::uint32_t cores = std::max(1u, job.machine.num_cores);

  std::uint64_t l2_acc = 0, l2_miss = 0, dram_acc = 0;
  std::vector<std::uint64_t> l2_core_acc, l2_core_miss;
  camat::CamatMetrics l2_agg, dram_agg;

  for (std::uint32_t c = 0; c < cores; ++c) {
    const trace::WorkloadProfile& wl = job.workloads.at(c);
    const ContextPtr ctx = eval_context(job, wl, guard);
    // A profile ProfileCache has evicted since is looked up again, which
    // rebuilds one equal to the profile the context was computed against.
    std::shared_ptr<const ReuseProfile> profile = ctx->profile.lock();
    if (profile == nullptr) profile = ProfileCache::global().reuse(wl);
    const CoreChain chain = evaluate_core(job, wl, *profile, *ctx);
    DemandCounters& counters = demand_counters();
    counters.passes.add(chain.demand_passes);
    counters.memo_hits.add(chain.demand_memo_hits);

    run.cores.push_back(chain.stats);
    run.l1.push_back(chain.l1);
    run.l1_cache.push_back(synth_cache_stats(
        chain.a1, chain.m1, {chain.a1}, {chain.m1},
        to_count(chain.mshr_pressure_cycles)));
    if (job.machine.use_private_l2) {
      run.l2_private.push_back(chain.l2p);
      run.l2_private_cache.push_back(
          synth_cache_stats(chain.a2p, chain.m2p, {chain.a2p}, {chain.m2p}, 0));
    }
    l2_acc += chain.a2;
    l2_miss += chain.m2;
    dram_acc += chain.a3;
    l2_core_acc.push_back(chain.a2);
    l2_core_miss.push_back(chain.m2);

    // Aggregate the shared levels counter-wise (per-core slices modelled
    // independently; see header caveats for the multicore approximation).
    auto add = [](camat::CamatMetrics& agg, const camat::CamatMetrics& m) {
      agg.accesses += m.accesses;
      agg.hits += m.hits;
      agg.misses += m.misses;
      agg.pure_misses += m.pure_misses;
      agg.active_cycles += m.active_cycles;
      agg.hit_cycles += m.hit_cycles;
      agg.miss_cycles += m.miss_cycles;
      agg.pure_miss_cycles += m.pure_miss_cycles;
      agg.hit_phase_access_cycles += m.hit_phase_access_cycles;
      agg.miss_access_cycles += m.miss_access_cycles;
      agg.pure_access_cycles += m.pure_access_cycles;
      agg.hit_access_cycles += m.hit_access_cycles;
      agg.total_miss_latency += m.total_miss_latency;
    };
    add(l2_agg, chain.l2);
    add(dram_agg, chain.dram);

    if (job.calibrate) out.calib.push_back(ctx->calib);
  }

  run.l2 = l2_agg;
  run.dram = dram_agg;
  run.l2_cache =
      synth_cache_stats(l2_acc, l2_miss, std::move(l2_core_acc),
                        std::move(l2_core_miss), 0);
  run.dram_stats.reads = dram_acc;
  run.dram_stats.busy_cycles = dram_agg.active_cycles;
  run.dram_stats.total_read_latency = dram_agg.hit_phase_access_cycles;
  for (const auto& cs : run.cores) {
    run.cycles = std::max<Cycle>(run.cycles, cs.cycles);
  }
  return out;
}

std::uint64_t eval_context_bytes() { return contexts().bytes(); }

std::uint64_t eval_context_builds() { return contexts().builds(); }

void register_analytic_executors() {
  static const bool registered = [] {
    exp::ExperimentEngine::register_backend_executor(kRdhBackend,
                                                     &evaluate_analytic);
    exp::ExperimentEngine::register_backend_executor(kFaBackend,
                                                     &evaluate_analytic);
    return true;
  }();
  (void)registered;
}

}  // namespace lpm::model
