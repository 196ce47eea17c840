#include "sim/machine_config.hpp"

#include "util/error.hpp"

namespace lpm::sim {

void MachineConfig::validate() const {
  using util::require;
  require(num_cores >= 1, "MachineConfig: need at least one core");
  core.validate();
  l1.validate();
  l2.validate();
  if (use_private_l2) private_l2.validate();
  dram.validate();
  require(l1_size_per_core.empty() || l1_size_per_core.size() == num_cores,
          "MachineConfig: l1_size_per_core must match num_cores");
  require(max_cycles >= 1, "MachineConfig: max_cycles must be >= 1");
}

MachineConfig MachineConfig::single_core_default() {
  MachineConfig m;
  m.num_cores = 1;

  m.core.name = "core0";
  m.core.issue_width = 4;
  m.core.dispatch_width = 4;
  m.core.commit_width = 4;
  m.core.iw_size = 32;
  m.core.rob_size = 32;
  m.core.lsq_size = 16;

  m.l1.name = "L1";
  m.l1.size_bytes = 32 * 1024;
  m.l1.block_bytes = 64;
  m.l1.associativity = 4;
  m.l1.hit_latency = 3;
  m.l1.ports = 1;
  m.l1.banks = 1;
  m.l1.mshr_entries = 4;
  m.l1.mshr_targets = 8;
  m.l1.prefetch_degree = 6;  // tagged next-N-line streamer, MSHR-throttled

  m.l2.name = "L2";
  m.l2.size_bytes = 1024 * 1024;
  m.l2.block_bytes = 64;
  m.l2.associativity = 8;
  m.l2.hit_latency = 12;
  m.l2.ports = 2;
  m.l2.banks = 4;
  m.l2.interleave_bytes = 64;
  m.l2.mshr_entries = 16;
  m.l2.mshr_targets = 8;

  return m;
}

MachineConfig MachineConfig::nuca16() {
  MachineConfig m = single_core_default();
  m.num_cores = 16;

  // A balanced per-core pipeline so the L1 size is the differentiator.
  m.core.issue_width = 4;
  m.core.iw_size = 64;
  m.core.rob_size = 64;
  m.core.lsq_size = 16;

  m.l1.ports = 2;
  m.l1.mshr_entries = 8;
  m.l1.num_cores = 16;

  // Shared LLC sized and banked for sixteen clients: the paper's CMP keeps
  // the uncore from being the universal bottleneck so that private-L1
  // placement is what differentiates schedules.
  m.l2.size_bytes = 8 * 1024 * 1024;
  m.l2.associativity = 16;
  // Two accept slots per cycle: enough for a well-placed mix, congested
  // when misplaced programs flood the LLC with avoidable miss traffic -
  // the interference channel that differentiates schedules (Fig. 8).
  m.l2.ports = 2;
  m.l2.banks = 16;
  m.l2.mshr_entries = 64;
  m.l2.mshr_targets = 8;
  m.l2.writeback_capacity = 32;
  m.l2.num_cores = 16;

  // Memory bandwidth scaled for sixteen cores (multi-channel): the
  // streaming programs must not saturate DRAM on their own, or no schedule
  // can influence anything.
  m.dram.banks = 64;
  m.dram.queue_capacity = 256;
  m.dram.max_issue_per_cycle = 8;
  m.dram.frontend_latency = 24;

  // Fig. 5: four groups of four cores with 4/16/32/64 KB private L1s.
  m.l1_size_per_core.clear();
  const std::uint64_t sizes[4] = {4 * 1024, 16 * 1024, 32 * 1024, 64 * 1024};
  for (std::uint32_t g = 0; g < 4; ++g) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      m.l1_size_per_core.push_back(sizes[g]);
    }
  }
  return m;
}

MachineConfig MachineConfig::three_level_default() {
  MachineConfig m = single_core_default();
  m.use_private_l2 = true;

  m.private_l2.name = "L2p";
  m.private_l2.size_bytes = 256 * 1024;
  m.private_l2.block_bytes = 64;
  m.private_l2.associativity = 8;
  m.private_l2.hit_latency = 10;
  m.private_l2.ports = 2;
  m.private_l2.banks = 2;
  m.private_l2.mshr_entries = 12;
  m.private_l2.mshr_targets = 8;

  // The shared cache becomes a proper LLC.
  m.l2.name = "LLC";
  m.l2.size_bytes = 4 * 1024 * 1024;
  m.l2.associativity = 16;
  m.l2.hit_latency = 24;
  m.l2.ports = 2;
  m.l2.banks = 8;
  m.l2.mshr_entries = 32;
  return m;
}

}  // namespace lpm::sim
