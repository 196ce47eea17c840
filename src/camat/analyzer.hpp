// The C-AMAT analyzer (paper Fig. 4): software realization of the Hit
// Concurrency Detector (HCD) and Miss Concurrency Detector (MCD).
//
// Attached to a cache (or DRAM) via the mem::AccessProbe interface, it
// observes per-cycle hit activity and per-access miss begin/end events, and
// maintains exactly the lightweight counters the paper's detecting system
// needs: hit phases for C_H, pure-miss phases for C_M, per-miss pure-cycle
// counts for pMR/pAMP, and the conventional Cm/AMP for eta.
#pragma once

#include <cstdint>
#include <vector>

#include "camat/metrics.hpp"
#include "mem/probe.hpp"
#include "util/types.hpp"

namespace lpm::camat {

class Analyzer final : public mem::AccessProbe {
 public:
  explicit Analyzer(std::string level_name = "L1")
      : name_(std::move(level_name)) {}

  // --- mem::AccessProbe ---
  void on_cycle_activity(Cycle cycle, std::uint32_t hit_active) override;
  void on_access(RequestId id, Cycle start, bool is_write) override;
  void on_hit(RequestId id, Cycle done) override;
  void on_miss(RequestId id, Cycle start) override;
  void on_miss_done(RequestId id, Cycle done) override;

  /// Cumulative metrics since construction / last reset().
  [[nodiscard]] const CamatMetrics& metrics() const { return m_; }

  /// Metrics accumulated since the previous call (interval measurement);
  /// the first call returns everything so far.
  CamatMetrics interval_delta();

  /// Clears all counters (outstanding misses keep being tracked so that
  /// in-flight accesses complete consistently).
  void reset_counters();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t outstanding_misses() const { return outstanding_.size(); }

  /// Number of distinct hit phases (maximal runs of hit-active cycles) and
  /// pure-miss phases observed; exposed for Fig.-1-style accounting.
  [[nodiscard]] std::uint64_t hit_phases() const { return hit_phases_; }
  [[nodiscard]] std::uint64_t pure_miss_phases() const { return pure_miss_phases_; }

 private:
  struct MissRec {
    RequestId id = kNoRequest;
    Cycle start = 0;
    /// pure_clock_ when the miss began; the miss is pure iff the clock
    /// has advanced by the time it completes.
    std::uint64_t pure_clock_at_start = 0;
    Cycle access_start = 0;  ///< when the lookup began (for hit-phase length)
  };
  struct AccessRec {
    RequestId id = kNoRequest;
    Cycle start = 0;
  };

  std::string name_;
  CamatMetrics m_;
  CamatMetrics last_snapshot_;
  std::vector<MissRec> outstanding_;
  std::vector<AccessRec> in_lookup_;
  // A "phase" (Fig. 1) is a maximal run of cycles with the same non-zero
  // concurrency; track the previous cycle's concurrency to detect edges.
  std::uint32_t prev_hit_concurrency_ = 0;
  std::uint32_t prev_pure_concurrency_ = 0;
  std::uint64_t hit_phases_ = 0;
  std::uint64_t pure_miss_phases_ = 0;
  // Pure-miss cycles seen since construction (never reset): each miss's
  // pure-cycle count is the clock's advance over its lifetime, so a pure
  // cycle costs O(1) however many misses are outstanding.
  std::uint64_t pure_clock_ = 0;
  Cycle last_sampled_cycle_ = kNoCycle;
};

}  // namespace lpm::camat
