#include "sim/calibration.hpp"

#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/memo.hpp"

namespace lpm::sim {

namespace {

/// About 40,000 calibrations of 96 bytes each, far more than any walk or
/// sweep runs: a rebuild is a cycle-accurate run (DESIGN §11).
constexpr std::uint64_t kCalibrationMemoBytes = 4u << 20;

struct CalibrationCache {
  util::Memo<std::uint64_t, CpiExeResult> memo{
      kCalibrationMemoBytes,
      [](const CpiExeResult&) -> std::uint64_t { return sizeof(CpiExeResult); }};
  /// Resolved once: a lookup by name takes the registry's mutex.
  obs::MetricsRegistry::Counter hits =
      obs::MetricsRegistry::global().counter("sim.calibration_cache_hits");
};

CalibrationCache& cache() {
  // Leaked on purpose: engine workers may still calibrate while static
  // destructors run.
  static auto* cache = new CalibrationCache;
  return *cache;
}

}  // namespace

std::uint64_t calibration_key(const MachineConfig& cfg,
                              const trace::WorkloadProfile& workload) {
  return calibration_key(cfg, util::fingerprint(workload));
}

std::uint64_t calibration_key(const MachineConfig& cfg,
                              std::uint64_t workload_fingerprint) {
  // measure_cpi_exe builds the perfect memory with unlimited ports, so
  // l1.ports is deliberately absent: configurations differing only in
  // memory-side knobs share one calibration.
  cpu::CoreConfig core = cfg.core;
  core.id = 0;
  util::Fingerprint f;
  f.mix("CpiExeCalibration/v1");
  f.mix_u64(util::fingerprint(core));
  f.mix(cfg.l1.hit_latency);
  f.mix_u64(cfg.max_cycles);
  f.mix_u64(workload_fingerprint);
  return f.value();
}

CpiExeResult cached_cpi_exe(const MachineConfig& cfg,
                            const trace::WorkloadProfile& workload,
                            const RunGuard* guard) {
  if (guard != nullptr && guard->cancel.load(std::memory_order_relaxed)) {
    throw util::TimeoutError("calibration cancelled by watchdog");
  }
  CalibrationCache& c = cache();
  const auto found = c.memo.get_or_build(
      calibration_key(cfg, workload),
      [&] {
        const trace::TraceSourcePtr trace =
            trace::make_read_ahead_trace(workload);
        return measure_cpi_exe(cfg, *trace, guard);
      },
      guard != nullptr ? &guard->cancel : nullptr);
  if (!found.built) c.hits.inc();
  return found.value;
}

std::uint64_t calibration_runs() { return cache().memo.builds(); }

}  // namespace lpm::sim
