// The full simulated system: trace-driven cores over a two-level cache
// hierarchy and DRAM, with a C-AMAT analyzer attached to every layer.
// This is the gem5+DRAMSim2 substitute (DESIGN.md §2).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "camat/analyzer.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/machine_config.hpp"
#include "trace/trace_source.hpp"

namespace lpm::sim {

/// Everything measured by one run.
struct SystemResult {
  bool completed = false;   ///< false = hit max_cycles
  Cycle cycles = 0;         ///< cycles until every core drained
  std::vector<cpu::CoreStats> cores;
  std::vector<camat::CamatMetrics> l1;  ///< per-core L1 C-AMAT metrics
  camat::CamatMetrics l2;               ///< shared L2/LLC (aggregate)
  camat::CamatMetrics dram;             ///< memory layer ("L3" in LPMR3)
  std::vector<mem::CacheStats> l1_cache;
  mem::CacheStats l2_cache;
  mem::DramStats dram_stats;
  /// Per-core private L2 metrics when the machine has three cache levels
  /// (empty otherwise); the shared fields above then describe the LLC.
  std::vector<camat::CamatMetrics> l2_private;
  std::vector<mem::CacheStats> l2_private_cache;
  [[nodiscard]] bool has_private_l2() const { return !l2_private.empty(); }

  /// L1 miss rate of core c (demand misses / demand accesses).
  [[nodiscard]] double mr1(std::size_t c) const { return l1_cache.at(c).miss_rate(); }
  /// Aggregate L2 miss rate.
  [[nodiscard]] double mr2() const { return l2_cache.miss_rate(); }

  /// Exact whole-run equality: every counter of every layer must match.
  /// This is the currency of the differential oracle (src/check): the
  /// optimized System and the reference model must produce == results.
  friend bool operator==(const SystemResult&, const SystemResult&) = default;
};

/// Cooperative cancellation for run(): an external watchdog (the experiment
/// engine's, when a job timeout is configured) sets `cancel`; the run loop
/// polls it every `check_interval` simulated cycles and throws
/// util::TimeoutError. Threads are never killed — the simulation unwinds
/// through its own stack, so no System is ever left half-ticked.
struct RunGuard {
  std::atomic<bool> cancel{false};
  /// Cycles between polls. Coarse enough that the atomic load is free,
  /// fine enough that cancellation lands within microseconds of wall time.
  Cycle check_interval = 4096;
};

class System {
 public:
  /// One trace per core (sizes must match cfg.num_cores). Traces are owned
  /// by the system for the duration of the run.
  System(MachineConfig cfg, std::vector<trace::TraceSourcePtr> traces);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs to completion (all cores drained) or cfg.max_cycles. A non-null
  /// `guard` makes the run cancellable: util::TimeoutError is thrown at the
  /// next check interval after guard->cancel becomes true.
  SystemResult run(const RunGuard* guard = nullptr);

  /// Single-cycle stepping for tests; returns false once finished.
  bool step();
  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool finished() const;
  /// Collects results at any point (normally after run()).
  [[nodiscard]] SystemResult collect() const;

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] camat::Analyzer& l1_analyzer(std::size_t core);
  [[nodiscard]] camat::Analyzer& l2_analyzer() { return *l2_analyzer_; }
  [[nodiscard]] cpu::OooCore& core(std::size_t idx) { return *cores_.at(idx); }
  /// Live handle to a core's L1 for online reconfiguration (paper SIV).
  [[nodiscard]] mem::Cache& l1_cache(std::size_t core) { return *l1s_.at(core); }

 private:
  MachineConfig cfg_;
  std::vector<trace::TraceSourcePtr> traces_;
  std::unique_ptr<mem::Dram> dram_;
  std::unique_ptr<camat::Analyzer> dram_analyzer_;
  std::unique_ptr<mem::Cache> l2_;
  std::unique_ptr<camat::Analyzer> l2_analyzer_;
  std::vector<std::unique_ptr<mem::Cache>> private_l2s_;
  std::vector<std::unique_ptr<camat::Analyzer>> private_l2_analyzers_;
  std::vector<std::unique_ptr<mem::Cache>> l1s_;
  std::vector<std::unique_ptr<camat::Analyzer>> l1_analyzers_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
  // Cores still in the cycle loop, in index order. A finished core whose L1
  // (and private L2) went dormant is retired: all three ticks are no-ops
  // from then on. finalize and collect still visit every component.
  std::vector<std::uint32_t> live_;
  [[nodiscard]] bool retire_finished_cores();
  [[nodiscard]] bool uncore_idle() const;
  Cycle now_ = 0;
  bool finalized_ = false;
};

/// Measures CPIexe and fmem: the core re-runs `trace` against a perfect
/// memory with the L1's hit latency and unlimited ports (no misses
/// possible). sim::cached_cpi_exe (sim/calibration.hpp) memoizes it.
struct CpiExeResult {
  double cpi_exe = 0.0;
  double fmem = 0.0;
  std::uint64_t instructions = 0;
  Cycle cycles = 0;
  friend bool operator==(const CpiExeResult&, const CpiExeResult&) = default;
};
CpiExeResult measure_cpi_exe(const MachineConfig& cfg, trace::TraceSource& trace,
                             const RunGuard* guard = nullptr);

}  // namespace lpm::sim
