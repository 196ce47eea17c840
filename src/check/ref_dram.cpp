#include "check/ref_dram.hpp"

namespace lpm::check {

RefDram::RefDram(mem::DramConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  banks_.assign(cfg_.banks, Bank{});
}

std::uint32_t RefDram::bank_of(Addr addr) const {
  return static_cast<std::uint32_t>((addr / cfg_.interleave_bytes) % cfg_.banks);
}

std::uint64_t RefDram::row_of(Addr addr) const {
  return addr / (cfg_.row_bytes * cfg_.banks);
}

bool RefDram::ready(const Pending& p, Cycle now) const {
  return !p.in_service && banks_[bank_of(p.req.addr)].busy_until <= now;
}

bool RefDram::try_access(const mem::MemRequest& req) {
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.rejected_full;
    return false;
  }
  queue_.push_back(Pending{req, accept_cycle_, false, kNoCycle});
  if (probe_ != nullptr && req.reply_to != nullptr) {
    probe_->on_access(req.id, accept_cycle_,
                      req.kind == mem::AccessKind::kWrite);
  }
  return true;
}

void RefDram::sample(Cycle cycle) {
  if (!queue_.empty()) ++stats_.busy_cycles;
  if (probe_ == nullptr) return;
  // Last level: every resident demand request is hit activity; writes
  // without a reply sink are bandwidth, not accesses.
  std::uint32_t demand = 0;
  for (const Pending& p : queue_) {
    if (p.req.reply_to != nullptr) ++demand;
  }
  probe_->on_cycle_activity(cycle, demand);
}

void RefDram::tick(Cycle now) {
  if (now > 0) sample(now - 1);
  accept_cycle_ = now;

  // Completions, oldest first.
  for (std::size_t i = 0; i < queue_.size();) {
    const Pending p = queue_[i];
    if (!p.in_service || p.done_at > now) {
      ++i;
      continue;
    }
    if (p.req.kind == mem::AccessKind::kRead) {
      ++stats_.reads;
      stats_.total_read_latency += now - p.accepted;
    } else {
      ++stats_.writes;
    }
    if (p.req.reply_to != nullptr) {
      if (probe_ != nullptr) probe_->on_hit(p.req.id, now);
      p.req.reply_to->on_response(
          mem::MemResponse{p.req.id, p.req.core, p.req.addr, now});
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // FR-FCFS with an age cap, one full three-pass scan per issue slot:
  // the oldest starved ready request, else the oldest ready row hit, else
  // the oldest ready request.
  for (std::uint32_t slot = 0; slot < cfg_.max_issue_per_cycle; ++slot) {
    std::size_t pick = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (ready(queue_[i], now) &&
          now - queue_[i].accepted >= cfg_.starvation_threshold) {
        pick = i;
        break;
      }
    }
    for (std::size_t i = 0; pick == queue_.size() && i < queue_.size(); ++i) {
      const Bank& b = banks_[bank_of(queue_[i].req.addr)];
      if (ready(queue_[i], now) && b.row_open &&
          b.open_row == row_of(queue_[i].req.addr)) {
        pick = i;
      }
    }
    for (std::size_t i = 0; pick == queue_.size() && i < queue_.size(); ++i) {
      if (ready(queue_[i], now)) pick = i;
    }
    if (pick == queue_.size()) break;

    Pending& p = queue_[pick];
    Bank& b = banks_[bank_of(p.req.addr)];
    const std::uint64_t row = row_of(p.req.addr);
    std::uint32_t latency = cfg_.t_cl + cfg_.t_burst;
    if (!b.row_open) {
      latency += cfg_.t_rcd;
      ++stats_.row_misses;
    } else if (b.open_row != row) {
      latency += cfg_.t_rp + cfg_.t_rcd;
      ++stats_.row_conflicts;
    } else {
      ++stats_.row_hits;
    }
    b.row_open = true;
    b.open_row = row;
    b.busy_until = now + latency;
    p.in_service = true;
    p.done_at = now + latency + cfg_.frontend_latency;
  }
}

void RefDram::finalize(Cycle end_cycle) { sample(end_cycle); }

}  // namespace lpm::check
