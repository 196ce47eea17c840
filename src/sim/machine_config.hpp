// Whole-machine configuration: cores + private L1s + shared L2 + DRAM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace lpm::sim {

/// A plain value: start from a preset below and write the fields that
/// differ. The code that consumes a machine (sim::System's constructor,
/// exp::SimJob::validate) checks it with validate(), so an invalid machine
/// never runs.
struct MachineConfig {
  std::uint32_t num_cores = 1;
  cpu::CoreConfig core;        ///< template applied to every core
  mem::CacheConfig l1;         ///< template for each private L1
  mem::CacheConfig l2;         ///< shared last-level cache
  mem::DramConfig dram;
  /// Optional third cache level ("the extension to additional cache levels
  /// is straightforward", paper SIII): when enabled each core gets a
  /// private L2 between its L1 and the shared cache, which then acts as an
  /// L3/LLC. Adds a fourth matching ratio (LLC, MM) downstream.
  bool use_private_l2 = false;
  mem::CacheConfig private_l2;  ///< template for each private L2
  /// Optional per-core L1 size override (NUCA heterogeneity, Fig. 5);
  /// empty = uniform l1.size_bytes everywhere.
  std::vector<std::uint64_t> l1_size_per_core;
  std::uint64_t max_cycles = 200'000'000;  ///< runaway guard

  void validate() const;

  /// A sensible single-core default machine (config-A-like parallelism).
  [[nodiscard]] static MachineConfig single_core_default();

  /// The 16-core heterogeneous-L1 CMP of Case Study II (Fig. 5): four
  /// groups of four cores with 4/16/32/64 KB private L1 data caches.
  [[nodiscard]] static MachineConfig nuca16();

  /// A three-level single-core machine (private L1 + private L2 + shared
  /// LLC + DRAM), demonstrating the model's extension to deeper
  /// hierarchies.
  [[nodiscard]] static MachineConfig three_level_default();
};

}  // namespace lpm::sim
