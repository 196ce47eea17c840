#include "camat/analyzer.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace lpm::camat {

void Analyzer::on_cycle_activity(Cycle cycle, std::uint32_t hit_active) {
  // Guard against double sampling of the same cycle (programming error in a
  // caller); monotonicity is a debug invariant.
  assert(last_sampled_cycle_ == kNoCycle || cycle > last_sampled_cycle_);
  last_sampled_cycle_ = cycle;

  const auto outstanding = static_cast<std::uint32_t>(outstanding_.size());
  const bool hit_act = hit_active > 0;
  const bool miss_act = outstanding > 0;

  if (hit_act || miss_act) ++m_.active_cycles;

  if (hit_act) {
    ++m_.hit_cycles;
    m_.hit_access_cycles += hit_active;
    if (hit_active != prev_hit_concurrency_) ++hit_phases_;
  }
  if (miss_act) {
    ++m_.miss_cycles;
    m_.miss_access_cycles += outstanding;
  }

  const bool pure = miss_act && !hit_act;
  if (pure) {
    ++m_.pure_miss_cycles;
    m_.pure_access_cycles += outstanding;
    ++pure_clock_;  // every outstanding miss saw one more pure cycle
    if (outstanding != prev_pure_concurrency_) ++pure_miss_phases_;
  }
  prev_hit_concurrency_ = hit_act ? hit_active : 0;
  prev_pure_concurrency_ = pure ? outstanding : 0;
}

void Analyzer::on_access(RequestId id, Cycle start, bool /*is_write*/) {
  ++m_.accesses;
  in_lookup_.push_back(AccessRec{id, start});
}

void Analyzer::on_hit(RequestId id, Cycle done) {
  ++m_.hits;
  const auto it = std::find_if(in_lookup_.begin(), in_lookup_.end(),
                               [&](const AccessRec& r) { return r.id == id; });
  util::require(it != in_lookup_.end(), "Analyzer: on_hit for unknown access");
  m_.hit_phase_access_cycles += done - it->start;
  in_lookup_.erase(it);
}

void Analyzer::on_miss(RequestId id, Cycle start) {
  ++m_.misses;
  const auto it = std::find_if(in_lookup_.begin(), in_lookup_.end(),
                               [&](const AccessRec& r) { return r.id == id; });
  util::require(it != in_lookup_.end(), "Analyzer: on_miss for unknown access");
  m_.hit_phase_access_cycles += start - it->start;
  const Cycle access_start = it->start;
  in_lookup_.erase(it);
  outstanding_.push_back(MissRec{id, start, pure_clock_, access_start});
}

void Analyzer::on_miss_done(RequestId id, Cycle done) {
  const auto it = std::find_if(outstanding_.begin(), outstanding_.end(),
                               [&](const MissRec& r) { return r.id == id; });
  util::require(it != outstanding_.end(), "Analyzer: on_miss_done for unknown miss");
  m_.total_miss_latency += done - it->start;
  if (pure_clock_ > it->pure_clock_at_start) ++m_.pure_misses;
  outstanding_.erase(it);
}

CamatMetrics Analyzer::interval_delta() {
  const CamatMetrics delta = m_.minus(last_snapshot_);
  last_snapshot_ = m_;
  return delta;
}

void Analyzer::reset_counters() {
  m_ = CamatMetrics{};
  last_snapshot_ = CamatMetrics{};
  // Pure cycles before the reset no longer count toward pure_misses.
  for (auto& rec : outstanding_) rec.pure_clock_at_start = pure_clock_;
  hit_phases_ = 0;
  pure_miss_phases_ = 0;
  prev_hit_concurrency_ = 0;
  prev_pure_concurrency_ = 0;
}

}  // namespace lpm::camat
