// The evaluation contexts evaluate_analytic shares between jobs.
//
// A context holds what every evaluation of one workload on one cache
// geometry shares: the profile, CPIexe, the L1 bucket weights and the
// alpha-0 fill passes. It is stored under a key, and a key that leaves out
// one of the context's inputs would hand one job another job's context.
// The key test renames the workload between passes — the name changes the
// fingerprint but not the ops — so each pass meets cold contexts, and one
// pass gives every job a name of its own: those results come from contexts
// no other job touched, and the shared passes must equal them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/design_space.hpp"
#include "exp/experiment_engine.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "obs/metrics.hpp"
#include "sim/machine_config.hpp"
#include "trace/spec_like.hpp"

namespace lpm::model {
namespace {

/// lpmbench `screen`'s cache geometries and knob grid.
struct ScreenGeometry {
  std::uint64_t l1_bytes;
  std::uint32_t l1_ways;
  std::uint64_t l2_bytes;
};
constexpr std::array<ScreenGeometry, 5> kScreenGeometries = {{
    {16 * 1024, 2, 512 * 1024},
    {16 * 1024, 8, 2048 * 1024},
    {32 * 1024, 4, 1024 * 1024},
    {64 * 1024, 2, 2048 * 1024},
    {64 * 1024, 8, 512 * 1024},
}};

sim::MachineConfig screen_machine(const ScreenGeometry& g) {
  sim::MachineConfig m = sim::MachineConfig::single_core_default();
  m.l1.size_bytes = g.l1_bytes;
  m.l1.associativity = g.l1_ways;
  m.l2.size_bytes = g.l2_bytes;
  return m;
}

/// screen's 100 candidates: L1 ports x MSHRs x L2 interleave.
std::vector<core::ArchKnobs> screen_knobs() {
  std::vector<core::ArchKnobs> knobs;
  for (const std::uint32_t ports : {1u, 2u, 3u, 4u}) {
    for (const std::uint32_t mshr : {1u, 4u, 12u, 32u, 64u}) {
      for (const std::uint32_t il : {1u, 4u, 16u, 64u, 512u}) {
        core::ArchKnobs k = core::ArchKnobs::config_a();
        k.l1_ports = ports;
        k.mshr_entries = mshr;
        k.l2_interleave = il;
        knobs.push_back(k);
      }
    }
  }
  return knobs;
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter_or_zero(name);
}

/// Every job of the key test on workload `wl`: screen's grid, then a small
/// machine and one variant of it per context input. Each variant differs
/// from the small machine in that input alone, so a key without the input
/// hands the variant the small machine's context, or the other way round.
std::vector<exp::SimJob> key_jobs(const trace::WorkloadProfile& wl) {
  std::vector<exp::SimJob> jobs;
  auto add = [&](sim::MachineConfig m, const char* backend,
                 std::uint32_t cores = 1) {
    m.num_cores = cores;
    exp::SimJob job;
    job.machine = std::move(m);
    job.workloads.assign(cores, wl);
    job.calibrate = true;
    job.backend = backend;
    jobs.push_back(std::move(job));
  };
  for (const char* backend : {kRdhBackend, kFaBackend}) {
    for (const ScreenGeometry& g : kScreenGeometries) {
      for (const core::ArchKnobs& k : screen_knobs()) {
        add(k.apply(screen_machine(g)), backend);
      }
    }
  }
  // Caches small enough for the short trace's reuse distances to tell
  // every size, way count and block size apart.
  sim::MachineConfig small = sim::MachineConfig::single_core_default();
  small.l1.size_bytes = 4 * 1024;
  small.l1.associativity = 2;
  small.l2.size_bytes = 32 * 1024;
  small.l2.associativity = 4;
  mem::CacheConfig private_l2 =
      sim::MachineConfig::three_level_default().private_l2;
  private_l2.size_bytes = 16 * 1024;
  private_l2.associativity = 4;
  const std::vector<std::function<void(mem::CacheConfig&)>> one_field = {
      [](mem::CacheConfig& c) { c.size_bytes *= 2; },
      [](mem::CacheConfig& c) { c.associativity *= 2; },
      [](mem::CacheConfig& c) { c.block_bytes /= 2; },
  };
  for (const char* backend : {kRdhBackend, kFaBackend}) {
    add(small, backend);
    for (const auto& change : one_field) {
      sim::MachineConfig l1 = small;
      change(l1.l1);
      add(l1, backend);
      sim::MachineConfig l2 = small;
      change(l2.l2);
      add(l2, backend);
    }
    // The private L2 field is set but unused until use_private_l2 is on.
    sim::MachineConfig unused = small;
    unused.private_l2 = private_l2;
    add(unused, backend);
    sim::MachineConfig deep = unused;
    deep.use_private_l2 = true;
    add(deep, backend);
    for (const auto& change : one_field) {
      sim::MachineConfig other = deep;
      change(other.private_l2);
      add(other, backend);
    }
    // Two cores slice the shared L2 in half.
    add(small, backend, 2);
  }
  return jobs;
}

void rename(exp::SimJob& job, const std::string& name) {
  for (trace::WorkloadProfile& wl : job.workloads) wl.name = name;
}

TEST(EvalContext, KeyNamesEveryInputOfTheContext) {
  const trace::WorkloadProfile base =
      trace::spec_profile(trace::SpecBenchmark::kGcc, 4000, 4343);
  const std::vector<exp::SimJob> jobs = key_jobs(base);
  const std::size_t n = jobs.size();

  // Each job alone: a fresh name builds a context only that job uses.
  std::vector<exp::SimJobResult> alone(n);
  for (std::size_t i = 0; i < n; ++i) {
    exp::SimJob job = jobs[i];
    rename(job, "ctx-key-alone-" + std::to_string(i));
    alone[i] = evaluate_analytic(job);
  }

  // In order, then interleaved (a stride coprime with n visits every job
  // once, far from its neighbours), each under one shared name.
  constexpr std::size_t kStride = 7919;
  ASSERT_NE(n % kStride, 0u);
  for (const bool interleaved : {false, true}) {
    const std::string name =
        interleaved ? "ctx-key-interleaved" : "ctx-key-in-order";
    std::size_t mismatches = 0;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = interleaved ? step * kStride % n : step;
      exp::SimJob job = jobs[i];
      rename(job, name);
      const exp::SimJobResult got = evaluate_analytic(job);
      if (!(got.run == alone[i].run) || got.calib != alone[i].calib) {
        ++mismatches;
        ADD_FAILURE() << name << ": job " << i << " (" << job.backend
                      << ", l1 " << job.machine.l1.size_bytes << "/"
                      << job.machine.l1.associativity << ", cores "
                      << job.machine.num_cores << ", private l2 "
                      << job.machine.use_private_l2
                      << ") differs from its own context's result";
        if (mismatches == 5) return;
      }
    }
  }
}

TEST(EvalContext, OneSweepBuildsOneContextAndOneProfile) {
  // A workload no other test evaluates, so its profile is cold.
  const trace::WorkloadProfile wl =
      trace::spec_profile(trace::SpecBenchmark::kMcf, 20000, 4344);
  const std::uint64_t builds = counter("model.backend.profile_builds");
  const std::uint64_t hits = counter("model.backend.profile_cache_hits");
  const std::uint64_t contexts = eval_context_builds();
  for (const core::ArchKnobs& k : screen_knobs()) {
    exp::SimJob job = exp::SimJob::solo(
        k.apply(screen_machine(kScreenGeometries[2])), wl, /*calibrate=*/true);
    job.backend = kRdhBackend;
    (void)evaluate_analytic(job);
  }
  EXPECT_EQ(counter("model.backend.profile_builds"), builds + 1);
  EXPECT_EQ(counter("model.backend.profile_cache_hits"), hits);
  EXPECT_EQ(eval_context_builds(), contexts + 1);
}

TEST(EvalContext, StaysWithinItsBudgetAndRebuildsEvictedContextsIdentically) {
  // A trace with many distinct reuse distances and an L1 whose miss table
  // reaches past all of them: each context carries ~90 KB of L1 weights.
  const trace::WorkloadProfile wl =
      trace::spec_profile(trace::SpecBenchmark::kMcf, 200000, 4345);
  sim::MachineConfig machine = sim::MachineConfig::single_core_default();
  machine.l1.size_bytes = 256 * 1024;
  machine.l1.associativity = 8;
  exp::SimJob first_job = exp::SimJob::solo(machine, wl, /*calibrate=*/true);
  first_job.backend = kRdhBackend;
  const exp::SimJobResult first = evaluate_analytic(first_job);

  // Contexts of the same workload and L1 behind other shared L2s: each is
  // charged the same bytes. Once those built after the first job's add up
  // to more than the budget, the first job's, least recently used, is gone.
  std::vector<mem::CacheConfig> l2s;
  for (const std::uint32_t block : {32u, 64u, 128u, 256u}) {
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, 32u}) {
      for (std::uint64_t size = 1u << 14; size <= 1u << 24; size <<= 1) {
        mem::CacheConfig l2 = machine.l2;
        l2.block_bytes = block;
        l2.interleave_bytes =
            std::max<std::uint64_t>(l2.interleave_bytes, block);
        l2.associativity = ways;
        l2.size_bytes = size;
        const bool same = size == machine.l2.size_bytes &&
                          block == machine.l2.block_bytes &&
                          ways == machine.l2.associativity;
        if (!same) l2s.push_back(l2);
      }
    }
  }
  std::uint64_t context_bytes = 0;  // from a build that evicted nothing
  std::uint64_t built = 0;
  for (const mem::CacheConfig& l2 : l2s) {
    if (built * context_bytes > kEvalContextBudgetBytes) break;
    exp::SimJob job = first_job;
    job.machine.l2 = l2;
    const std::uint64_t builds = eval_context_builds();
    const std::uint64_t bytes = eval_context_bytes();
    (void)evaluate_analytic(job);
    ASSERT_EQ(eval_context_builds(), builds + 1) << "a fresh key must build";
    ASSERT_LE(eval_context_bytes(), kEvalContextBudgetBytes);
    if (eval_context_bytes() > bytes) {
      context_bytes = std::max(context_bytes, eval_context_bytes() - bytes);
    }
    ++built;
  }
  ASSERT_GT(built * context_bytes, kEvalContextBudgetBytes)
      << "too few L2 geometries to overflow the budget";

  const std::uint64_t builds = eval_context_builds();
  const exp::SimJobResult again = evaluate_analytic(first_job);
  EXPECT_EQ(eval_context_builds(), builds + 1) << "the context was evicted";
  EXPECT_TRUE(again.run == first.run);
  EXPECT_EQ(again.calib, first.calib);
}

}  // namespace
}  // namespace lpm::model
