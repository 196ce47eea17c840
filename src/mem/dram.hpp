// Banked DRAM with row-buffer state machines and an FR-FCFS controller.
//
// This stands in for the DRAMSim2 module the paper attaches to gem5: it
// produces the *variable, contention-dependent* miss penalties (row hits vs
// row conflicts, bank queueing) that make pAMP diverge from AMP and give
// pure-miss behaviour its texture. Timing parameters are expressed in CPU
// cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/probe.hpp"
#include "mem/request.hpp"
#include "util/rng.hpp"

namespace lpm::mem {

struct DramConfig {
  std::string name = "DRAM";
  std::uint32_t banks = 8;
  std::uint64_t row_bytes = 2048;      ///< row-buffer size
  std::uint64_t interleave_bytes = 64; ///< bank interleaving granularity
  std::uint32_t t_rcd = 12;   ///< activate -> column command
  std::uint32_t t_cl = 12;    ///< column command -> first data
  std::uint32_t t_rp = 12;    ///< precharge
  std::uint32_t t_burst = 4;  ///< data transfer occupancy
  std::uint32_t frontend_latency = 18;  ///< controller + bus crossing
  std::uint32_t queue_capacity = 32;
  std::uint32_t max_issue_per_cycle = 1;  ///< command bandwidth
  /// FR-FCFS age cap: a request waiting longer than this is served FCFS
  /// ahead of younger row hits (prevents row-hit streams from starving
  /// conflicting requests).
  std::uint32_t starvation_threshold = 200;

  void validate() const;
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;    ///< bank idle, row closed
  std::uint64_t row_conflicts = 0; ///< wrong row open
  std::uint64_t rejected_full = 0;
  std::uint64_t busy_cycles = 0;   ///< cycles with >= 1 request in flight
  std::uint64_t total_read_latency = 0;  ///< accept -> data, summed over reads

  /// Exact counter-wise equality (differential testing).
  friend bool operator==(const DramStats&, const DramStats&) = default;
};

/// The bottom of the hierarchy. As the last level, every access is "hit
/// activity" for C-AMAT purposes: the attached probe sees each request's
/// whole residency (queue + service) as its hit phase, so C-AMAT3 = 1/APC3
/// reflects DRAM concurrency and latency directly.
class Dram final : public MemoryLevel {
 public:
  explicit Dram(DramConfig cfg);

  void set_probe(AccessProbe* probe) { probe_ = probe; }

  bool try_access(const MemRequest& req) override;
  void tick(Cycle now) override;
  void finalize(Cycle end_cycle) override;
  [[nodiscard]] bool busy() const override;

  [[nodiscard]] const DramStats& stats() const { return stats_; }
  [[nodiscard]] const DramConfig& config() const { return cfg_; }

 private:
  struct Bank {
    bool row_open = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
  };
  struct Pending {
    MemRequest req;
    Cycle accepted = 0;
    Cycle done_at = kNoCycle;
    std::uint64_t row = 0;  // decoded once, at acceptance
    std::uint32_t bank = 0;
    bool in_service = false;
  };

  void sample_activity(Cycle cycle);
  void issue_commands(Cycle now);
  /// Index of the request FR-FCFS serves next, or queue_.size() when no
  /// waiting request's bank is free (then next_issue_ is set exactly).
  [[nodiscard]] std::size_t pick_request(Cycle now);
  void complete_finished(Cycle now);

  DramConfig cfg_;
  AccessProbe* probe_ = nullptr;  // non-owning
  std::vector<Bank> banks_;
  // Bounded by queue_capacity and kept in acceptance order (finished
  // entries are compacted out, never reordered), so `accepted` is
  // non-decreasing along it; a reserved vector keeps it allocation-free and
  // cache-contiguous.
  std::vector<Pending> queue_;
  std::uint32_t bank_shift_ = 0;  // log2(interleave_bytes)
  std::uint32_t row_shift_ = 0;   // log2(row_bytes * banks)
  // Event gates: complete_finished runs only once the earliest in-service
  // request is due, and issue_commands only once a waiting request's bank
  // is free. Both are kNoCycle while there is nothing to wait for.
  Cycle next_done_ = kNoCycle;
  Cycle next_issue_ = kNoCycle;
  Cycle accept_cycle_ = 0;
  std::uint32_t demand_in_queue_ = 0;  // queued requests with a reply sink
  bool probe_quiesced_ = false;  // probe already saw a zero-demand cycle
  DramStats stats_;
};

}  // namespace lpm::mem
