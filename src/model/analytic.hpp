// Analytic cache-model backends: predict a full SimJobResult without
// ticking a cycle.
//
// Both backends start from one ReuseProfile — an exact LRU stack-distance
// histogram of the workload's trace, built in a single O(N log N) profiling
// pass and cached process-wide, so a design-space sweep pays the trace
// replay once and every config evaluation afterwards is closed-form. The
// profile stores only the histogram's support (distances below
// `distance_end`, plus one tail slot), so its memory scales with the
// distinct reuse distances the trace produced, not with
// kMaxTrackedDistance, and an "rdh" evaluation visits only the non-empty
// buckets:
//
//  * "fa"  — fully-associative stack-distance model (after Gysi et al.,
//    arXiv 2001.01653): misses(C) = cold + #{accesses with stack distance
//    >= C blocks}. Exact for fully-associative LRU; an optimistic bound
//    for set-associative arrays.
//  * "rdh" — reuse-distance-histogram model with a binomial set-mapping
//    correction (after Ling et al., arXiv 1907.05068): an access at stack
//    distance D misses a (S sets, A ways) cache with probability
//    P[Binom(D, 1/S) >= A]. Captures conflict misses the FA model cannot.
//
// The miss predictions are then lifted to full C-AMAT parameter sets per
// layer (H/CH/pMR/pAMP/CM, Eq. 2) using Little's-law concurrency estimates,
// and synthesized into counter blocks that satisfy the Eq. 2/3 identities
// *by construction* (check::check_metric_identities passes on analytic
// results). CPIexe still comes from the real perfect-cache calibration —
// it depends only on the core + L1 latency, so sim::cached_cpi_exe shares
// one calibration across every cache configuration and both backends.
//
// Known approximations (quantified by src/check/fidelity.hpp): lower-level
// caches see globally-measured stack distances (inclusive-hierarchy
// assumption); prefetching is a coverage-based miss-elimination factor;
// concurrency/overlap are heuristic estimates; shared caches on multicore
// machines are modelled as per-core capacity slices. Block-size effects
// are measured at 64-byte granularity.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "model/backend.hpp"
#include "obs/metrics.hpp"
#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/workload_profile.hpp"
#include "util/memo.hpp"

namespace lpm::model {

/// Exact LRU stack-distance histogram of one workload's trace, at 64-byte
/// block granularity, plus the sequential-coverage side channel used for
/// the prefetch correction. Immutable once built; shared across configs.
///
/// Accesses are grouped into *bursts*: a leader plus the same-block
/// accesses that follow while the leader's potential fill could still be
/// outstanding. The simulator's cache counts every access to a block with
/// a fill in flight as a (coalesced) miss, so a burst shares its leader's
/// hit/miss outcome, while the MSHR sends one fill downstream per missing
/// burst. How long a fill stays outstanding depends on the machine (an
/// L2-fed fill spans a few memory accesses, a DRAM-fed one spans dozens),
/// so followers are recorded by their gap-from-leader class and the
/// effective coalescing window is chosen per configuration at evaluation
/// time: `hist` counts burst leaders (downstream fills), `followers[c]`
/// counts accesses at leader-gap class c (the demand MR accounting).
struct ReuseProfile {
  static constexpr std::uint64_t kBlockBytes = 64;
  /// Distances >= this land in the overflow bucket (4 MiB of 64 B blocks —
  /// larger than every cache in the design space).
  static constexpr std::uint64_t kMaxTrackedDistance = 1u << 16;
  /// An access is "covered" (a next-line prefetcher would likely have
  /// fetched its block) when the preceding block was accessed at most this
  /// many memory accesses ago. Kept tight: a streamer's prefetch is only
  /// useful when it trails the stream closely — a predecessor touched long
  /// ago means the prefetched line was evicted before use (zipf workloads
  /// touch predecessors "recently" by chance without being streams).
  static constexpr std::uint64_t kCoverWindow = 256;
  /// Follower gap classes: class c holds same-block accesses whose gap
  /// from the burst leader is in (kBurstClassLo[c], kBurstClassHi[c]]
  /// memory accesses. Gaps past the last bound start a new burst.
  static constexpr std::size_t kNumBurstClasses = 4;
  static constexpr std::uint64_t kBurstClassLo[kNumBurstClasses] = {0, 4, 16,
                                                                    64};
  static constexpr std::uint64_t kBurstClassHi[kNumBurstClasses] = {4, 16, 64,
                                                                    256};
  /// The widest coalescing window any configuration can see.
  static constexpr std::uint64_t kMaxBurstWindow =
      kBurstClassHi[kNumBurstClasses - 1];

  std::uint64_t micro_ops = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t distinct_blocks = 0;
  std::uint64_t cold = 0;          ///< first-touch burst leaders (compulsory)
  std::uint64_t cold_covered = 0;
  /// One past the largest tracked distance with a burst leader: every
  /// bucket in [distance_end, kMaxTrackedDistance) is empty. The
  /// per-distance arrays hold distance_end entries.
  std::size_t distance_end = 0;
  std::vector<std::uint64_t> hist;     ///< burst leaders at distance d
  std::vector<std::uint64_t> covered;  ///< covered subset of hist[d]
  /// Suffix sums over (hist + overflow), distance_end + 1 entries:
  /// suffix[d] = leaders with distance >= d. The last slot is the tail —
  /// the overflow bucket, since no bucket past the support is non-empty;
  /// index with tail(d) to read any distance.
  std::vector<std::uint64_t> suffix;
  std::vector<std::uint64_t> suffix_covered;
  /// Follower counts per gap class, indexed like hist/suffix by the burst
  /// leader's distance bucket; cold-leader bursts are tallied separately
  /// and overflow-leader bursts only in the suffix tail slot.
  std::array<std::vector<std::uint64_t>, kNumBurstClasses> followers;
  std::array<std::vector<std::uint64_t>, kNumBurstClasses> followers_covered;
  std::array<std::vector<std::uint64_t>, kNumBurstClasses> suffix_followers;
  std::array<std::vector<std::uint64_t>, kNumBurstClasses>
      suffix_followers_covered;
  std::array<std::uint64_t, kNumBurstClasses> cold_followers{};
  std::array<std::uint64_t, kNumBurstClasses> cold_followers_covered{};

  /// One non-empty histogram bucket with its counts as doubles (exact:
  /// every count is below 2^53), packed so an evaluation reads it in one
  /// contiguous record. The follower counts are cumulative in class
  /// order: cum_followers[c] = followers[0][d] + ... + followers[c][d],
  /// so class c alone is cum_followers[c] - cum_followers[c - 1], exactly.
  struct Bucket {
    std::size_t distance = 0;
    double hist = 0.0;
    double covered = 0.0;
    std::array<double, kNumBurstClasses> cum_followers{};
    std::array<double, kNumBurstClasses> cum_followers_covered{};
  };
  /// Every d < distance_end with hist[d] != 0, ascending in d. Followers
  /// only land in a bucket whose leader did, so every other bucket is
  /// empty in all of the per-distance arrays.
  std::vector<Bucket> buckets;

  /// Index of the suffix-array slot that holds distance `d`: every
  /// distance at or past the support shares the tail slot.
  [[nodiscard]] std::size_t tail(std::uint64_t d) const {
    return d < distance_end ? static_cast<std::size_t>(d) : distance_end;
  }

  [[nodiscard]] double fmem() const {
    return micro_ops == 0 ? 0.0
                          : static_cast<double>(mem_ops) /
                                static_cast<double>(micro_ops);
  }
};

/// One trace replay: last-access map + Fenwick tree over access positions
/// gives exact LRU stack distances in O(N log N). The per-distance arrays
/// are sized to the trace (a stack distance is below the op count) during
/// the pass and cut to the support at its end.
[[nodiscard]] ReuseProfile build_reuse_profile(const trace::WorkloadProfile& wl);

/// Fraction of each follower gap class that falls inside a coalescing
/// window of `w` memory accesses (linear within the class bounds). The
/// classes are contiguous, so the result is 1 on a prefix of the classes,
/// in [0, 1] on at most one class after it and +0 on every class above.
[[nodiscard]] std::array<double, ReuseProfile::kNumBurstClasses>
burst_fractions(double w);

/// What a closed-form cache model predicts for one level.
struct MissEstimate {
  /// Misses as the demand MR counts them: every access of a missing burst
  /// inside the coalescing window, coalesced repeats included.
  double demand = 0.0;
  /// Unique block fetches sent downstream (one per missing burst) — the
  /// next level's access count.
  double fills = 0.0;
};

/// Expected misses of a fully-associative LRU cache of `capacity_blocks`
/// 64-byte blocks. `prefetch_alpha` in [0,1] removes that fraction of the
/// sequentially-covered missing bursts (0 = no prefetcher);
/// `burst_window` is the coalescing window in memory accesses (how long a
/// fill of this configuration stays outstanding — followers within it
/// share the leader's miss).
[[nodiscard]] MissEstimate fa_misses(
    const ReuseProfile& p, std::uint64_t capacity_blocks,
    double prefetch_alpha,
    double burst_window = ReuseProfile::kMaxBurstWindow);

/// Expected misses of a (sets, associativity) LRU cache under uniform
/// set mapping (binomial correction); same prefetch/burst handling.
/// O(p.buckets): it visits the non-empty buckets below the distance where
/// P[miss] saturates, then adds the suffix tail from there. `fills` and
/// `demand` come from two independent passes; an evaluation that needs
/// only one of them runs only that pass.
[[nodiscard]] MissEstimate rdh_misses(
    const ReuseProfile& p, std::uint64_t sets, std::uint32_t associativity,
    double prefetch_alpha,
    double burst_window = ReuseProfile::kMaxBurstWindow);

/// Process-wide memo of reuse profiles (keyed by workload fingerprint),
/// the expensive part of an analytic evaluation besides the CPIexe
/// calibration (shared with the cycle backend in sim::cached_cpi_exe);
/// everything downstream is closed-form. Thread-safe; concurrent misses
/// on one workload build its profile once.
class ProfileCache {
 public:
  /// Byte budget of the stored profiles. A profile's arrays stop at
  /// kMaxTrackedDistance, so it costs at most about 16 MB and any 16
  /// profiles fit, whatever their length (DESIGN §11).
  static constexpr std::uint64_t kBudgetBytes = 256u << 20;

  static ProfileCache& global();

  [[nodiscard]] std::shared_ptr<const ReuseProfile> reuse(
      const trace::WorkloadProfile& wl);
  /// Forwards to sim::cached_cpi_exe; for callers that time the
  /// calibration apart from the evaluation.
  [[nodiscard]] sim::CpiExeResult calibration(
      const sim::MachineConfig& machine, const trace::WorkloadProfile& wl);

  /// Trace replays reuse() has run (one per miss of a distinct workload).
  [[nodiscard]] std::uint64_t profile_builds() const;
  /// sim::calibration_runs(): every backend's calibrations, process-wide.
  [[nodiscard]] std::uint64_t calibration_runs() const;
  /// Bytes the stored profiles are charged; never above kBudgetBytes.
  [[nodiscard]] std::uint64_t bytes() const;
  /// Bytes one profile keeps alive: the record and its arrays' capacity.
  [[nodiscard]] static std::uint64_t footprint(const ReuseProfile& p);

 private:
  using Memo = util::Memo<std::uint64_t, std::shared_ptr<const ReuseProfile>>;

  Memo memo_{kBudgetBytes, [](const std::shared_ptr<const ReuseProfile>& p) {
               return footprint(*p);
             }};
  /// Resolved once: a lookup by name takes the registry's mutex.
  obs::MetricsRegistry::Counter hits_counter_ =
      obs::MetricsRegistry::global().counter(
          "model.backend.profile_cache_hits");
  obs::MetricsRegistry::Counter builds_counter_ =
      obs::MetricsRegistry::global().counter("model.backend.profile_builds");
};

/// Evaluates one backend-tagged job ("rdh" or "fa") analytically and
/// returns a fully-populated result whose counters satisfy the Eq. 2/3
/// identities exactly. Deterministic; microseconds per call once the
/// workload's profile and calibration are cached.
///
/// Each core's evaluation context — its profile, CPIexe, L1 bucket
/// weights and alpha-0 fill passes — is resolved once per (workload,
/// calibration key, backend, cache geometry, L2 sharers) and shared by
/// every job with that key, so a sweep over ports, MSHRs or interleave
/// takes one memo hit per core. The context also keeps the L1 demand
/// passes of its CPI fixed point, which neighbouring knob settings mostly
/// repeat bit for bit. A cancelled `guard` throws util::TimeoutError,
/// including while another caller builds the context.
[[nodiscard]] exp::SimJobResult evaluate_analytic(
    const exp::SimJob& job, const sim::RunGuard* guard = nullptr);

/// Byte budget of the evaluation-context memo (DESIGN §11). A context is
/// charged its L1 bucket weights and its fixed records, its L1 demand memo
/// included, not its profile, which ProfileCache owns and budgets.
inline constexpr std::uint64_t kEvalContextBudgetBytes = 16u << 20;
/// Entries of each evaluation context's L1 demand memo (24 bytes each):
/// the demand passes of its CPI fixed point, keyed by their exact prefetch
/// alpha and coalescing window. A context that meets more distinct pairs
/// than it can store computes the rest, with equal results (DESIGN §9).
inline constexpr std::size_t kDemandMemoSlots = 256;
/// Bytes the stored evaluation contexts are charged; never above
/// kEvalContextBudgetBytes.
[[nodiscard]] std::uint64_t eval_context_bytes();
/// Evaluation contexts built so far in this process.
[[nodiscard]] std::uint64_t eval_context_builds();

/// Registers the "rdh" and "fa" executors with the experiment engine.
/// Idempotent and thread-safe; called by every AnalyticBackend
/// construction and by consumers that submit tagged jobs directly.
void register_analytic_executors();

}  // namespace lpm::model
