// Diagnosis scenario: measure an application on a machine, let the LPM
// model say what is binding, and quantify the five C-AMAT optimization
// dimensions with what-if analysis - the "which parameter should be
// optimized on demand" workflow, driven entirely through the lpm.hpp
// facade.
//
//   $ ./diagnose [workload=429.mcf] [length=120000] [delta=10]
#include <cstdio>

#include "lpm.hpp"

int main(int argc, char** argv) {
  using namespace lpm;
  const auto args = util::KvConfig::from_args(argc, argv);
  const std::string name = args.get_or("workload", "429.mcf");
  const std::uint64_t length = args.get_uint_or("length", 120'000);
  const double delta = args.get_double_or("delta", 10.0);

  TraceSpec spec;
  try {
    spec = TraceSpec::spec(name, length, /*seed=*/13);
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const sim::MachineConfig machine = sim::MachineConfig::single_core_default();
  const SimulationReport report = simulate(machine, spec);
  const core::AppMeasurement& m = report.app();

  // The LPM diagnosis.
  core::HardwareContext hw;
  hw.mshr_entries = machine.l1.mshr_entries;
  hw.l1_ports = machine.l1.ports;
  hw.rob_size = machine.core.rob_size;
  hw.issue_width = machine.core.issue_width;
  hw.l1_rejections = report.run.cores[0].l1_rejections;
  hw.l1_mshr_wait_cycles = report.run.l1_cache[0].mshr_full_waits;
  hw.l1_misses = report.run.l1_cache[0].misses;
  const auto diag = core::diagnose(m, hw, delta);

  std::printf("== %s on the default machine (delta = %.0f%%) ==\n\n%s\n",
              name.c_str(), delta, diag.narrative().c_str());

  // The five optimization dimensions, quantified (paper SII).
  const auto sens = camat::sensitivity(m.l1, 2.0);
  std::printf("C-AMAT sensitivity (improvement from a 2x change in each "
              "dimension alone):\n");
  std::printf("  H     -> %5.1f%%      C_H  -> %5.1f%%\n", 100 * sens.h_gain,
              100 * sens.ch_gain);
  std::printf("  pMR   -> %5.1f%%      pAMP -> %5.1f%%      C_M -> %5.1f%%\n",
              100 * sens.pmr_gain, 100 * sens.pamp_gain, 100 * sens.cm_gain);
  std::printf("  most profitable dimension: %s\n\n", sens.best());

  const double stall_now = core::stall_eq7(m);
  const double stall_if = camat::predict_stall_per_instr(
      m.l1, camat::WhatIf::more_miss_concurrency(2.0), m.fmem,
      m.overlap_ratio);
  std::printf("what-if: doubling pure-miss concurrency alone -> stall %.4f "
              "-> %.4f cycles/instr\n",
              stall_now, stall_if);
  return 0;
}
