// Pins the simulator's answers bit for bit: one FNV-1a digest per set of
// runs over every counter a run reports. The differential oracle checks
// that two implementations agree; these pins check that one build agrees
// with the last, so a compiler, flag or link change that moves any
// counter fails here, whichever layer it touches.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/design_space.hpp"
#include "exp/experiment_engine.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "sim/system.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"

namespace lpm::sim {
namespace {

using trace::SpecBenchmark;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over the eight little-endian bytes of `v`, folded into `h`.
/// Spelled out here rather than taken from util::Fingerprint, whose values
/// are free to change between builds.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

void mix(std::uint64_t& h, const std::vector<std::uint64_t>& v) {
  mix(h, static_cast<std::uint64_t>(v.size()));
  for (const std::uint64_t x : v) mix(h, x);
}

void mix(std::uint64_t& h, const cpu::CoreStats& s) {
  for (const std::uint64_t v :
       {s.instructions, s.mem_ops, s.loads, s.stores, s.cycles, s.commit_cycles,
        s.mem_active_cycles, s.overlap_cycles, s.data_stall_cycles,
        s.head_mem_stall_cycles, s.l1_rejections}) {
    mix(h, v);
  }
}

void mix(std::uint64_t& h, const mem::CacheStats& s) {
  for (const std::uint64_t v :
       {s.accesses, s.hits, s.misses, s.mshr_coalesced, s.rejected_ports,
        s.rejected_bank, s.rejected_backlog, s.mshr_full_waits, s.writebacks,
        s.writeback_hits, s.writeback_forwards, s.fills, s.evictions,
        s.deferred_fills, s.prefetches_issued, s.prefetch_hits,
        s.prefetch_coalesced, s.quota_waits}) {
    mix(h, v);
  }
  mix(h, s.core_accesses);
  mix(h, s.core_misses);
}

void mix(std::uint64_t& h, const camat::CamatMetrics& m) {
  for (const std::uint64_t v :
       {m.accesses, m.hits, m.misses, m.pure_misses, m.active_cycles,
        m.hit_cycles, m.miss_cycles, m.pure_miss_cycles,
        m.hit_phase_access_cycles, m.miss_access_cycles, m.pure_access_cycles,
        m.hit_access_cycles, m.total_miss_latency}) {
    mix(h, v);
  }
}

void mix(std::uint64_t& h, const mem::DramStats& s) {
  for (const std::uint64_t v :
       {s.reads, s.writes, s.row_hits, s.row_misses, s.row_conflicts,
        s.rejected_full, s.busy_cycles, s.total_read_latency}) {
    mix(h, v);
  }
}

void mix(std::uint64_t& h, const CpiExeResult& c) {
  mix(h, c.cpi_exe);
  mix(h, c.fmem);
  mix(h, c.instructions);
  mix(h, c.cycles);
}

template <typename T>
void mix_all(std::uint64_t& h, const std::vector<T>& v) {
  mix(h, static_cast<std::uint64_t>(v.size()));
  for (const T& x : v) mix(h, x);
}

void mix(std::uint64_t& h, const SystemResult& r) {
  mix(h, static_cast<std::uint64_t>(r.completed));
  mix(h, r.cycles);
  mix_all(h, r.cores);
  mix_all(h, r.l1);
  mix(h, r.l2);
  mix(h, r.dram);
  mix_all(h, r.l1_cache);
  mix(h, r.l2_cache);
  mix(h, r.dram_stats);
  mix_all(h, r.l2_private);
  mix_all(h, r.l2_private_cache);
}

SystemResult simulate(const MachineConfig& cfg,
                      const std::vector<trace::WorkloadProfile>& workloads) {
  std::vector<trace::TraceSourcePtr> traces;
  for (const trace::WorkloadProfile& w : workloads) {
    traces.push_back(std::make_unique<trace::SyntheticTrace>(w));
  }
  System sys(cfg, std::move(traces));
  return sys.run();
}

/// Folds a single-core run of `workload` on `cfg` and its CPIexe
/// calibration into `h`.
void mix_solo(std::uint64_t& h, const MachineConfig& cfg,
              const trace::WorkloadProfile& workload) {
  const SystemResult run = simulate(cfg, {workload});
  EXPECT_TRUE(run.completed) << workload.name;
  mix(h, run);
  trace::SyntheticTrace calib_trace(workload);
  mix(h, measure_cpi_exe(cfg, calib_trace));
}

/// lpmbench screen's five cache geometries on the default machine.
std::vector<MachineConfig> screen_geometries() {
  struct Geometry {
    std::uint64_t l1_bytes;
    std::uint32_t l1_ways;
    std::uint64_t l2_bytes;
  };
  const Geometry geometries[] = {
      {16 * 1024, 2, 512 * 1024},  {16 * 1024, 8, 2048 * 1024},
      {32 * 1024, 4, 1024 * 1024}, {64 * 1024, 2, 2048 * 1024},
      {64 * 1024, 8, 512 * 1024}};
  std::vector<MachineConfig> out;
  for (const Geometry& g : geometries) {
    MachineConfig m = MachineConfig::single_core_default();
    m.l1.size_bytes = g.l1_bytes;
    m.l1.associativity = g.l1_ways;
    m.l2.size_bytes = g.l2_bytes;
    out.push_back(m);
  }
  return out;
}

/// A screen sweep's confirmed winner: Table I's A with 3 L1 ports, 32
/// MSHRs and no L2 interleave.
core::ArchKnobs screen_winner() {
  core::ArchKnobs k = core::ArchKnobs::config_a();
  k.l1_ports = 3;
  k.mshr_entries = 32;
  k.l2_interleave = 1;
  return k;
}

// Every SPEC-like profile at 20k ops on each of the five geometries: the
// confirm runs of an lpmbench screen answer.
TEST(AnswerDigest, ScreenConfirmRunsArePinned) {
  std::uint64_t h = kFnvOffset;
  for (const MachineConfig& geometry : screen_geometries()) {
    const MachineConfig cfg = screen_winner().apply(geometry);
    for (const SpecBenchmark b : trace::all_spec_benchmarks()) {
      mix_solo(h, cfg, trace::spec_profile(b, 20'000, 1));
    }
  }
  EXPECT_EQ(h, 0xd5e4da589cdc0c10ULL) << std::hex << h;
}

// Table I's configurations A-E on three of the profiles lpmbench walks, at
// a walk's trace length.
TEST(AnswerDigest, TableOneConfigsArePinned) {
  const core::ArchKnobs configs[] = {
      core::ArchKnobs::config_a(), core::ArchKnobs::config_b(),
      core::ArchKnobs::config_c(), core::ArchKnobs::config_d(),
      core::ArchKnobs::config_e()};
  std::uint64_t h = kFnvOffset;
  for (const SpecBenchmark b :
       {SpecBenchmark::kPerlbench, SpecBenchmark::kGromacs,
        SpecBenchmark::kHmmer}) {
    const trace::WorkloadProfile wl = trace::spec_profile(b, 100'000, 2026);
    for (const core::ArchKnobs& k : configs) {
      mix_solo(h, k.apply(MachineConfig::single_core_default()), wl);
    }
  }
  EXPECT_EQ(h, 0x31500a5a61126cf5ULL) << std::hex << h;
}

// Fig. 8's sixteen programs co-run on the 16-core NUCA machine: the shared
// L2, the DRAM queue and core retirement at uneven finish times.
TEST(AnswerDigest, Nuca16CoRunIsPinned) {
  std::vector<trace::WorkloadProfile> workloads;
  std::uint64_t seed = 1;
  for (const SpecBenchmark b : trace::all_spec_benchmarks()) {
    workloads.push_back(trace::spec_profile(b, 4'000, seed++));
  }
  const SystemResult run = simulate(MachineConfig::nuca16(), workloads);
  EXPECT_TRUE(run.completed);
  std::uint64_t h = kFnvOffset;
  mix(h, run);
  EXPECT_EQ(h, 0x0de9b14be6cde312ULL) << std::hex << h;
}

// The analytic backends over a slice of screen's knob grid: every port
// count and MSHR level at two interleaves, on two geometries and four
// profiles.
TEST(AnswerDigest, AnalyticScreenSliceIsPinned) {
  const std::vector<MachineConfig> geometries = screen_geometries();
  for (const char* backend : {model::kRdhBackend, model::kFaBackend}) {
    std::uint64_t h = kFnvOffset;
    for (const std::size_t g : {std::size_t{0}, std::size_t{3}}) {
      for (const SpecBenchmark b :
           {SpecBenchmark::kGcc, SpecBenchmark::kMcf, SpecBenchmark::kHmmer,
            SpecBenchmark::kLibquantum}) {
        const trace::WorkloadProfile wl = trace::spec_profile(b, 20'000, 1);
        for (const std::uint32_t ports : {1u, 2u, 3u, 4u}) {
          for (const std::uint32_t mshr : {1u, 4u, 12u, 32u, 64u}) {
            for (const std::uint32_t il : {1u, 64u}) {
              core::ArchKnobs k = core::ArchKnobs::config_a();
              k.l1_ports = ports;
              k.mshr_entries = mshr;
              k.l2_interleave = il;
              exp::SimJob job = exp::SimJob::solo(k.apply(geometries[g]), wl);
              job.backend = backend;
              const exp::SimJobResult r = model::evaluate_analytic(job);
              mix(h, r.run);
              mix_all(h, r.calib);
            }
          }
        }
      }
    }
    const std::uint64_t pinned =
        std::string_view(backend) == model::kRdhBackend
            ? 0x3b88d13d2c949841ULL
            : 0xbb8b2227cd3e0fa1ULL;
    EXPECT_EQ(h, pinned) << backend << " " << std::hex << h;
  }
}

// The analytic backends over screen's whole grid: every port count, MSHR
// level and L2 interleave on all five geometries and all sixteen profiles,
// in the order one screen sweep submits them, so each evaluation context
// serves its hundred knob settings one after another.
TEST(AnswerDigest, AnalyticScreenGridIsPinned) {
  const std::vector<MachineConfig> geometries = screen_geometries();
  for (const char* backend : {model::kRdhBackend, model::kFaBackend}) {
    std::uint64_t h = kFnvOffset;
    for (const MachineConfig& geometry : geometries) {
      for (const SpecBenchmark b : trace::all_spec_benchmarks()) {
        const trace::WorkloadProfile wl = trace::spec_profile(b, 20'000, 1);
        for (const std::uint32_t ports : {1u, 2u, 3u, 4u}) {
          for (const std::uint32_t mshr : {1u, 4u, 12u, 32u, 64u}) {
            for (const std::uint32_t il : {1u, 4u, 16u, 64u, 512u}) {
              core::ArchKnobs k = core::ArchKnobs::config_a();
              k.l1_ports = ports;
              k.mshr_entries = mshr;
              k.l2_interleave = il;
              exp::SimJob job = exp::SimJob::solo(k.apply(geometry), wl);
              job.backend = backend;
              const exp::SimJobResult r = model::evaluate_analytic(job);
              mix(h, r.run);
              mix_all(h, r.calib);
            }
          }
        }
      }
    }
    const std::uint64_t pinned =
        std::string_view(backend) == model::kRdhBackend
            ? 0x2b86a20e15bc664fULL
            : 0x0da1981be913f470ULL;
    EXPECT_EQ(h, pinned) << backend << " " << std::hex << h;
  }
}

}  // namespace
}  // namespace lpm::sim
