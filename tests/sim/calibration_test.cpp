// The process-wide CPIexe calibration cache: hits are == to a fresh
// measurement, the key holds exactly what measure_cpi_exe reads, failed
// calibrations are never cached, and concurrent misses on one key run one
// calibration. Each test uses its own workload seed so no test is served
// by another's cache entry.
#include "sim/calibration.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace lpm::sim {
namespace {

trace::WorkloadProfile gcc(std::uint64_t seed, std::uint64_t length = 8000) {
  return trace::spec_profile(trace::SpecBenchmark::kGcc, length, seed);
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter_or_zero(name);
}

CpiExeResult fresh(const MachineConfig& machine,
                   const trace::WorkloadProfile& wl) {
  const trace::TraceSourcePtr t = trace::make_trace(wl);
  return measure_cpi_exe(machine, *t);
}

using FieldChanges =
    std::vector<std::pair<std::string, std::function<void(MachineConfig&)>>>;

/// One change per machine field measure_cpi_exe does not read.
FieldChanges fields_the_key_ignores() {
  return {
      {"l1.ports", [](MachineConfig& m) { m.l1.ports *= 4; }},
      {"l1.size_bytes", [](MachineConfig& m) { m.l1.size_bytes *= 2; }},
      {"l1.mshr_entries", [](MachineConfig& m) { m.l1.mshr_entries *= 2; }},
      {"l2.size_bytes", [](MachineConfig& m) { m.l2.size_bytes *= 2; }},
      {"l2.banks", [](MachineConfig& m) { m.l2.banks *= 2; }},
      {"l2.mshr_entries", [](MachineConfig& m) { m.l2.mshr_entries *= 2; }},
      {"dram.banks", [](MachineConfig& m) { m.dram.banks *= 2; }},
      {"dram.t_cl", [](MachineConfig& m) { m.dram.t_cl += 5; }},
      {"core.id", [](MachineConfig& m) { m.core.id = 7; }},
  };
}

/// One change per machine field measure_cpi_exe reads.
FieldChanges fields_the_key_reads() {
  return {
      {"issue_width", [](MachineConfig& m) { m.core.issue_width += 1; }},
      {"dispatch_width", [](MachineConfig& m) { m.core.dispatch_width += 1; }},
      {"commit_width", [](MachineConfig& m) { m.core.commit_width += 1; }},
      {"iw_size", [](MachineConfig& m) { m.core.iw_size += 1; }},
      {"rob_size", [](MachineConfig& m) { m.core.rob_size += 1; }},
      {"lsq_size", [](MachineConfig& m) { m.core.lsq_size += 1; }},
      {"l1.hit_latency", [](MachineConfig& m) { m.l1.hit_latency += 1; }},
      {"max_cycles", [](MachineConfig& m) { m.max_cycles += 1; }},
  };
}

TEST(CalibrationCache, HitEqualsAFreshMeasurement) {
  const auto machine = MachineConfig::single_core_default();
  const auto wl = gcc(101);
  const CpiExeResult first = cached_cpi_exe(machine, wl);
  const std::uint64_t runs = calibration_runs();
  const std::uint64_t hits = counter("sim.calibration_cache_hits");
  const CpiExeResult again = cached_cpi_exe(machine, wl);
  EXPECT_EQ(calibration_runs(), runs);
  EXPECT_EQ(counter("sim.calibration_cache_hits"), hits + 1);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again, fresh(machine, wl));
}

TEST(CalibrationCache, KeyIgnoresWhatThePerfectMemoryHides) {
  const auto base = MachineConfig::single_core_default();
  const auto wl = gcc(102);
  const std::uint64_t key = calibration_key(base, wl);
  for (const auto& [name, mutate] : fields_the_key_ignores()) {
    MachineConfig m = base;
    mutate(m);
    EXPECT_EQ(calibration_key(m, wl), key) << name << " must not split the key";
  }
  // The key really ignores ports: the measurement is the same too.
  MachineConfig ported = base;
  ported.l1.ports = 4;
  EXPECT_EQ(fresh(ported, wl), fresh(base, wl));
}

TEST(CalibrationCache, KeySeparatesEverythingMeasureCpiExeReads) {
  const auto base = MachineConfig::single_core_default();
  const auto wl = gcc(102);
  const std::uint64_t key = calibration_key(base, wl);
  for (const auto& [name, mutate] : fields_the_key_reads()) {
    MachineConfig m = base;
    mutate(m);
    EXPECT_NE(calibration_key(m, wl), key) << name << " must split the key";
  }
  EXPECT_NE(calibration_key(base, gcc(103)), key) << "the workload must split the key";
}

TEST(CalibrationCache, CancelledCalibrationIsNotCached) {
  const auto machine = MachineConfig::single_core_default();
  const auto wl = gcc(104);
  RunGuard guard;
  guard.cancel.store(true);
  guard.check_interval = 1;
  const std::uint64_t runs = calibration_runs();
  EXPECT_THROW((void)cached_cpi_exe(machine, wl, &guard), util::TimeoutError);
  EXPECT_EQ(calibration_runs(), runs);

  const std::uint64_t calibrations = counter("sim.calibrations");
  const std::uint64_t hits = counter("sim.calibration_cache_hits");
  EXPECT_EQ(cached_cpi_exe(machine, wl), fresh(machine, wl));
  // fresh() adds one direct calibration; the cached call must add one more.
  EXPECT_EQ(counter("sim.calibrations"), calibrations + 2);
  EXPECT_EQ(counter("sim.calibration_cache_hits"), hits);
  EXPECT_EQ(calibration_runs(), runs + 1);
}

TEST(CalibrationCache, FailedCalibrationIsNotCached) {
  auto machine = MachineConfig::single_core_default();
  machine.max_cycles = 50;  // the run cannot complete
  const auto wl = gcc(105);
  EXPECT_THROW((void)cached_cpi_exe(machine, wl), util::LpmError);
  EXPECT_THROW((void)cached_cpi_exe(machine, wl), util::LpmError)
      << "a failure must be re-run, not served from the cache";
}

TEST(CalibrationCache, ConcurrentMissesRunOneCalibration) {
  const auto machine = MachineConfig::single_core_default();
  const auto wl = gcc(106, 40000);
  constexpr int kThreads = 8;
  const std::uint64_t calibrations = counter("sim.calibrations");
  std::vector<CpiExeResult> results(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      results[i] = cached_cpi_exe(machine, wl);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter("sim.calibrations"), calibrations + 1);
  for (const CpiExeResult& r : results) EXPECT_EQ(r, results.front());
  EXPECT_GT(results.front().instructions, 0u);
}

TEST(CalibrationCache, CancelledCallerThrowsWithoutDisturbingTheOwner) {
  const auto machine = MachineConfig::single_core_default();
  const auto wl = gcc(107, 40000);
  const std::uint64_t calibrations = counter("sim.calibrations");
  CpiExeResult owner_result;
  std::thread owner([&] { owner_result = cached_cpi_exe(machine, wl); });
  // Whether this caller waits on the owner or races ahead and calibrates
  // itself, its cancelled guard must surface as a TimeoutError, and the
  // uncancelled caller must still get the one real calibration.
  RunGuard guard;
  guard.cancel.store(true);
  guard.check_interval = 1;
  EXPECT_THROW((void)cached_cpi_exe(machine, wl, &guard), util::TimeoutError);
  owner.join();
  EXPECT_EQ(counter("sim.calibrations"), calibrations + 1);
  EXPECT_EQ(owner_result, cached_cpi_exe(machine, wl));
}

TEST(CalibrationCache, WaiterHonoursItsOwnGuard) {
  const auto machine = MachineConfig::single_core_default();
  // Long enough (a few hundred ms) that the waiter below finds it pending.
  const auto wl = gcc(108, 3'000'000);
  std::atomic<bool> owner_done{false};
  std::thread owner([&] {
    (void)cached_cpi_exe(machine, wl);
    owner_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RunGuard guard;
  bool timed_out = false;
  bool owner_done_at_timeout = true;
  std::thread waiter([&] {
    try {
      (void)cached_cpi_exe(machine, wl, &guard);
    } catch (const util::TimeoutError&) {
      timed_out = true;
      owner_done_at_timeout = owner_done.load();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  guard.cancel.store(true);
  waiter.join();
  owner.join();
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(owner_done_at_timeout)
      << "the waiter must stop waiting as soon as its own guard fires";
}

// A caller that has the workload's fingerprint already gets the same key
// from it, on every machine and workload the tests above calibrate.
TEST(CalibrationCache, KeyFromTheWorkloadFingerprintIsTheSame) {
  const auto base = MachineConfig::single_core_default();
  std::vector<std::pair<MachineConfig, trace::WorkloadProfile>> cases;
  for (const auto& [seed, length] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {101, 8000}, {102, 8000}, {103, 8000}, {104, 8000}, {105, 8000},
           {106, 40000}, {107, 40000}, {108, 3'000'000}}) {
    cases.emplace_back(base, gcc(seed, length));
  }
  MachineConfig capped = base;
  capped.max_cycles = 50;
  cases.emplace_back(capped, gcc(105));
  for (const FieldChanges& changes :
       {fields_the_key_ignores(), fields_the_key_reads()}) {
    for (const auto& [name, mutate] : changes) {
      MachineConfig m = base;
      mutate(m);
      cases.emplace_back(m, gcc(102));
    }
  }
  for (const auto& [machine, wl] : cases) {
    EXPECT_EQ(calibration_key(machine, util::fingerprint(wl)),
              calibration_key(machine, wl))
        << wl.name << " seed " << wl.seed << " length " << wl.length;
  }
}

}  // namespace
}  // namespace lpm::sim
