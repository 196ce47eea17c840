#include "sim/calibration.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm::sim {

namespace {

/// How often a waiter re-checks its RunGuard while another thread runs the
/// calibration it needs.
constexpr std::chrono::milliseconds kGuardPoll{1};

void check_cancel(const RunGuard* guard) {
  if (guard != nullptr && guard->cancel.load(std::memory_order_relaxed)) {
    throw util::TimeoutError("calibration cancelled by watchdog");
  }
}

class CalibrationCache {
 public:
  static CalibrationCache& global() {
    // Leaked on purpose: engine workers may still calibrate while static
    // destructors run.
    static auto* cache = new CalibrationCache;
    return *cache;
  }

  CpiExeResult get(const MachineConfig& cfg,
                   const trace::WorkloadProfile& workload,
                   const RunGuard* guard) {
    const std::uint64_t key = calibration_key(cfg, workload);
    check_cancel(guard);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto [it, inserted] = slots_.try_emplace(key);
      Slot& slot = it->second;
      if (!inserted) {
        if (slot.done) {
          hits_.inc();
          return slot.result;
        }
        // Another thread is calibrating this key: wait for it, but keep
        // honouring our own watchdog.
        if (guard == nullptr) {
          cv_.wait(lock);
        } else {
          cv_.wait_for(lock, kGuardPoll);
          check_cancel(guard);
        }
        continue;  // done, or the owner failed and erased the slot
      }
      // This thread owns the pending slot and calibrates outside the lock;
      // references into the map survive rehashing.
      lock.unlock();
      CpiExeResult result;
      try {
        const trace::TraceSourcePtr trace =
            trace::make_read_ahead_trace(workload);
        result = measure_cpi_exe(cfg, *trace, guard);
      } catch (...) {
        lock.lock();
        slots_.erase(key);
        cv_.notify_all();
        throw;
      }
      lock.lock();
      slot.result = result;
      slot.done = true;
      ++runs_;
      cv_.notify_all();
      return result;
    }
  }

  std::uint64_t runs() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return runs_;
  }

 private:
  struct Slot {
    bool done = false;  ///< false while the owning thread calibrates
    CpiExeResult result;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::uint64_t runs_ = 0;
  /// Resolved once: a lookup by name takes the registry's mutex.
  obs::MetricsRegistry::Counter hits_ =
      obs::MetricsRegistry::global().counter("sim.calibration_cache_hits");
};

}  // namespace

std::uint64_t calibration_key(const MachineConfig& cfg,
                              const trace::WorkloadProfile& workload) {
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
  f.mix_u64(util::fingerprint(workload));
  return f.value();
}

CpiExeResult cached_cpi_exe(const MachineConfig& cfg,
                            const trace::WorkloadProfile& workload,
                            const RunGuard* guard) {
  return CalibrationCache::global().get(cfg, workload, guard);
}

std::uint64_t calibration_runs() { return CalibrationCache::global().runs(); }

}  // namespace lpm::sim
