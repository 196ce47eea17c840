#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace lpm::mem {

namespace {
[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

void DramConfig::validate() const {
  using util::require;
  require(banks >= 1 && is_pow2(banks), name, ": banks must be a power of two");
  require(is_pow2(row_bytes), name, ": row_bytes must be a power of two");
  require(is_pow2(interleave_bytes), name, ": interleave must be a power of two");
  require(row_bytes >= interleave_bytes, name, ": row must cover the interleave unit");
  require(t_burst >= 1, name, ": t_burst must be >= 1");
  require(queue_capacity >= 1, name, ": queue_capacity must be >= 1");
  require(max_issue_per_cycle >= 1, name, ": max_issue_per_cycle must be >= 1");
}

Dram::Dram(DramConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  banks_.assign(cfg_.banks, Bank{});
  queue_.reserve(cfg_.queue_capacity);
  // Rows are striped across banks: an address's row is its offset divided
  // by row_bytes * banks, and all three sizes are powers of two.
  bank_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.interleave_bytes));
  row_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.row_bytes) +
                                          std::countr_zero(cfg_.banks));
}

bool Dram::try_access(const MemRequest& req) {
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.rejected_full;
    return false;
  }
  Pending p;
  p.req = req;
  p.accepted = accept_cycle_;
  p.bank = static_cast<std::uint32_t>(req.addr >> bank_shift_) & (cfg_.banks - 1);
  p.row = req.addr >> row_shift_;
  queue_.push_back(p);
  next_issue_ = std::min(next_issue_, banks_[p.bank].busy_until);
  if (req.reply_to != nullptr) {
    ++demand_in_queue_;
    if (probe_ != nullptr) {
      probe_->on_access(req.id, accept_cycle_, req.kind == AccessKind::kWrite);
    }
  }
  return true;
}

void Dram::sample_activity(Cycle cycle) {
  if (!queue_.empty()) ++stats_.busy_cycles;
  if (probe_ == nullptr) return;
  // Last level: all residency counts as hit activity (see class comment).
  // Fire-and-forget writes are bandwidth, not demand accesses; excluded by
  // demand_in_queue_, which tracks exactly the replied-to residents. A DRAM
  // probe never sees on_miss, so once one zero-demand cycle is delivered,
  // further idle samples are metric-neutral and can be skipped.
  if (demand_in_queue_ == 0 && probe_quiesced_) return;
  probe_->on_cycle_activity(cycle, demand_in_queue_);
  probe_quiesced_ = demand_in_queue_ == 0;
}

void Dram::tick(Cycle now) {
  if (now > 0) sample_activity(now - 1);
  accept_cycle_ = now;
  // Between events neither pass can change anything: a completion needs a
  // due done_at, and an issue needs a waiting request on a free bank
  // (only an issue makes a bank busier, only an arrival adds a request).
  if (now >= next_done_) complete_finished(now);
  if (now >= next_issue_) issue_commands(now);
}

std::size_t Dram::pick_request(Cycle now) {
  // FR-FCFS with an age cap in one age-ordered scan: a request that has
  // waited past the starvation threshold is served FCFS ahead of younger
  // row hits, then the oldest row hit, then the oldest request. Because
  // `accepted` never decreases along the queue, the starved requests form
  // a prefix, so the first ready request inside it is the oldest starved
  // one, and the first ready row hit after it is the oldest row hit.
  const std::size_t n = queue_.size();
  std::size_t first_ready = n;
  Cycle next_free = kNoCycle;
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = queue_[i];
    if (p.in_service) continue;
    const Bank& b = banks_[p.bank];
    if (b.busy_until > now) {
      next_free = std::min(next_free, b.busy_until);
      continue;
    }
    if (now - p.accepted >= cfg_.starvation_threshold) return i;
    if (b.row_open && b.open_row == p.row) return i;
    if (first_ready == n) first_ready = i;
  }
  // Nothing ready: every waiting request's bank is busy, and only an
  // arrival (try_access lowers the gate) can move this event earlier.
  if (first_ready == n) next_issue_ = next_free;
  return first_ready;
}

void Dram::issue_commands(Cycle now) {
  for (std::uint32_t issued = 0; issued < cfg_.max_issue_per_cycle; ++issued) {
    const std::size_t pick = pick_request(now);
    if (pick == queue_.size()) return;  // pick_request set next_issue_

    Pending& p = queue_[pick];
    Bank& b = banks_[p.bank];
    std::uint32_t latency = 0;
    if (b.row_open && b.open_row == p.row) {
      latency = cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_hits;
    } else if (!b.row_open) {
      latency = cfg_.t_rcd + cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_misses;
    } else {
      latency = cfg_.t_rp + cfg_.t_rcd + cfg_.t_cl + cfg_.t_burst;
      ++stats_.row_conflicts;
    }
    b.row_open = true;
    b.open_row = p.row;
    b.busy_until = now + latency;
    p.in_service = true;
    p.done_at = now + latency + cfg_.frontend_latency;
    next_done_ = std::min(next_done_, p.done_at);
  }
  next_issue_ = now + 1;  // out of command slots; more may be ready
}

void Dram::complete_finished(Cycle now) {
  // One stable compaction pass: finished requests reply in queue order and
  // the rest slide down over them, so the queue keeps acceptance order.
  next_done_ = kNoCycle;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Pending& p = queue_[i];
    if (!p.in_service || p.done_at > now) {
      if (p.in_service) next_done_ = std::min(next_done_, p.done_at);
      if (kept != i) queue_[kept] = p;
      ++kept;
      continue;
    }
    if (p.req.kind == AccessKind::kRead) {
      ++stats_.reads;
      stats_.total_read_latency += now - p.accepted;
    } else {
      ++stats_.writes;
    }
    if (probe_ != nullptr && p.req.reply_to != nullptr) {
      probe_->on_hit(p.req.id, now);
    }
    if (p.req.reply_to != nullptr) {
      p.req.reply_to->on_response(
          MemResponse{p.req.id, p.req.core, p.req.addr, now});
      --demand_in_queue_;
    }
  }
  queue_.resize(kept);
}

void Dram::finalize(Cycle end_cycle) { sample_activity(end_cycle); }

bool Dram::busy() const { return !queue_.empty(); }

}  // namespace lpm::mem
