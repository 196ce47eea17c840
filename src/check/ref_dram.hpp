// Reference DRAM: the oracle counterpart of mem::Dram.
//
// Deliberately slow and straight-line, sharing with src/mem only the
// config/stats value types (DramStats is the comparison currency) and the
// request/response plumbing. Every cycle it samples the probe, scans the
// whole queue for finished commands, and then runs the three FR-FCFS passes
// over the whole queue once per issue slot, re-deriving each entry's bank
// and row with divisions. There is no event gating, no idle fast path and
// no quiesce latch: the optimized controller skips cycles and caches
// decodes, and differential testing requires the two to stay bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/dram.hpp"
#include "mem/probe.hpp"
#include "mem/request.hpp"

namespace lpm::check {

class RefDram final : public mem::MemoryLevel {
 public:
  explicit RefDram(mem::DramConfig cfg);

  void set_probe(mem::AccessProbe* probe) { probe_ = probe; }

  bool try_access(const mem::MemRequest& req) override;
  void tick(Cycle now) override;
  void finalize(Cycle end_cycle) override;
  [[nodiscard]] bool busy() const override { return !queue_.empty(); }

  [[nodiscard]] const mem::DramStats& stats() const { return stats_; }

 private:
  struct Bank {
    bool row_open = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
  };
  struct Pending {
    mem::MemRequest req;
    Cycle accepted = 0;
    bool in_service = false;
    Cycle done_at = kNoCycle;
  };

  [[nodiscard]] std::uint32_t bank_of(Addr addr) const;
  [[nodiscard]] std::uint64_t row_of(Addr addr) const;
  [[nodiscard]] bool ready(const Pending& p, Cycle now) const;
  void sample(Cycle cycle);

  mem::DramConfig cfg_;
  mem::AccessProbe* probe_ = nullptr;  // non-owning
  std::vector<Bank> banks_;
  std::vector<Pending> queue_;  // age order
  Cycle accept_cycle_ = 0;
  mem::DramStats stats_;
};

}  // namespace lpm::check
