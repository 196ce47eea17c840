// Trace tooling scenario: synthesize a workload, record it to an LPM2 trace
// file, replay it, and verify the replay drives the simulator to an
// identical result - the reproducibility workflow for sharing experiments.
//
//   $ ./trace_tools [workload=429.mcf] [length=50000] [path=/tmp/lpm.lpm2]
#include <cstdio>

#include <memory>

#include "lpm.hpp"

int main(int argc, char** argv) {
  using namespace lpm;
  const auto args = util::KvConfig::from_args(argc, argv);
  const std::string name = args.get_or("workload", "429.mcf");
  const std::uint64_t length = args.get_uint_or("length", 50'000);
  const std::string path = args.get_or("path", "/tmp/lpm_example.lpm2");

  trace::WorkloadProfile workload;
  for (const auto b : trace::all_spec_benchmarks()) {
    if (trace::spec_name(b) == name) workload = trace::spec_profile(b, length, 5);
  }
  workload.length = length;

  // Record.
  trace::SyntheticTrace source(workload);
  const std::uint64_t checksum = trace::record_trace_v2(source, path);
  std::printf("recorded %llu micro-ops of %s to %s (checksum %016llx)\n",
              static_cast<unsigned long long>(length), name.c_str(), path.c_str(),
              static_cast<unsigned long long>(checksum));

  // Replay from memory and from file; results must match bit for bit.
  const auto run_with = [&](trace::TraceSourcePtr t) {
    auto machine = sim::MachineConfig::single_core_default();
    std::vector<trace::TraceSourcePtr> traces;
    traces.push_back(std::move(t));
    sim::System system(machine, std::move(traces));
    return system.run();
  };
  const auto live = run_with(std::make_unique<trace::SyntheticTrace>(workload));
  const auto replay = run_with(std::make_unique<trace::Lpm2Trace>(path, name));

  std::printf("live run   : %llu cycles, %llu L1 misses, %llu DRAM reads\n",
              static_cast<unsigned long long>(live.cycles),
              static_cast<unsigned long long>(live.l1_cache[0].misses),
              static_cast<unsigned long long>(live.dram_stats.reads));
  std::printf("file replay: %llu cycles, %llu L1 misses, %llu DRAM reads\n",
              static_cast<unsigned long long>(replay.cycles),
              static_cast<unsigned long long>(replay.l1_cache[0].misses),
              static_cast<unsigned long long>(replay.dram_stats.reads));
  const bool identical = live.cycles == replay.cycles &&
                         live.l1_cache[0].misses == replay.l1_cache[0].misses &&
                         live.dram_stats.reads == replay.dram_stats.reads;
  std::printf("replay identical: %s\n", identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
