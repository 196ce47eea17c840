// One process-wide cache of perfect-cache CPIexe calibrations.
//
// measure_cpi_exe runs the core against a perfect memory, so its result
// depends on the core configuration, the L1 hit latency, the max_cycles
// guard and the workload — not on any cache geometry, port count, MSHR,
// L2 or DRAM setting. A design-space walk visits many configurations that
// share one core, and both the cycle backend (calibrate=true jobs) and the
// analytic backends need the same number; a process-wide util::Memo runs
// each distinct calibration once and serves every later request from
// memory (its byte budget holds far more calibrations than a walk visits).
#pragma once

#include <cstdint>

#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::sim {

/// The cache key of a calibration: exactly the inputs measure_cpi_exe
/// reads (core config with `id` cleared, l1.hit_latency, max_cycles) plus
/// the workload fingerprint.
[[nodiscard]] std::uint64_t calibration_key(const MachineConfig& cfg,
                                            const trace::WorkloadProfile& workload);

/// measure_cpi_exe over a fresh trace of `workload`, memoized process-wide
/// by calibration_key (util::Memo). Concurrent misses on one key run one
/// calibration; the other callers wait for it, polling their own `guard`.
/// A cancelled
/// guard throws util::TimeoutError, hit, miss or wait alike. A calibration
/// that throws is never cached: the error reaches its own caller and a
/// waiter retries the key.
/// Thread-safe; the result is == to a fresh measure_cpi_exe.
[[nodiscard]] CpiExeResult cached_cpi_exe(const MachineConfig& cfg,
                                          const trace::WorkloadProfile& workload,
                                          const RunGuard* guard = nullptr);

/// Calibrations cached_cpi_exe has run to completion in this process.
[[nodiscard]] std::uint64_t calibration_runs();

}  // namespace lpm::sim
