// The traced composition: a benchmark-owned copy of sim::System's wiring.
//
// It builds the public cpu::OooCore, mem::Cache, mem::Dram and
// camat::Analyzer exactly as sim::System does, and ticks them in the same
// bottom-up order, so its SystemResult must equal sim::System::run's on the
// same job. Two decorators sit on the layer boundaries: one times
// TraceSource::fill, one forwards the mem::AccessProbe callbacks to the
// analyzer. Component ticks are timed on every kSampleEvery-th cycle and the
// sampled split is scaled to the whole loop, so the unsampled cycles run at
// full speed.
#pragma once

#include <cstdint>

#include "exp/experiment_engine.hpp"
#include "sim/system.hpp"

namespace lpmbench {

/// Host time and work of the composition, summed over every replayed point.
struct LayerTimes {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double loop_s = 0.0;  ///< the whole cycle loop, less the clock reads

  // Trace layer, every fill() call timed. All times here have the cost of
  // the benchmark's own clock reads taken out.
  double fill_s = 0.0;
  std::uint64_t trace_ops = 0;

  std::uint64_t camat_events = 0;  ///< AccessProbe callbacks

  // Self time per component, estimated from the sampled cycles. A tick's
  // self time excludes the probe callbacks and trace fills it made; calls
  // one component makes into another (core into L1, L1 into L2) stay with
  // the caller.
  double cpu_s = 0.0;
  double l1_s = 0.0;
  double l2_s = 0.0;  ///< shared L2, plus private L2s when configured
  double dram_s = 0.0;
  double camat_s = 0.0;
  double sim_loop_s = 0.0;  ///< loop minus every component tick

  // Work the replayed points did (sums over cores and points).
  std::uint64_t data_stall_cycles = 0;
  std::uint64_t l1_rejections = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_mshr_full_waits = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_row_conflicts = 0;
};

inline constexpr std::uint64_t kSampleEvery = 8;

/// Re-simulates `job`'s sim::System::run (not its calibration) and adds its
/// cost to `times`. The job must use the cycle backend.
[[nodiscard]] lpm::sim::SystemResult replay(const lpm::exp::SimJob& job,
                                            LayerTimes& times);

}  // namespace lpmbench
