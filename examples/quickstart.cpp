// Quickstart: build a machine, run a workload, and read the C-AMAT / LPM
// metrics off it - the five-minute tour of the public API. Everything here
// comes through the single facade header lpm.hpp: the machine from a
// MachineConfig preset, the workload from TraceSpec, the run (with its
// calibration and LPM measurement) from lpm::simulate().
//
//   $ ./quickstart [workload=403.gcc] [length=100000]
#include <cstdio>

#include "lpm.hpp"

int main(int argc, char** argv) {
  using namespace lpm;
  const auto args = util::KvConfig::from_args(argc, argv);
  const std::string name = args.get_or("workload", "403.gcc");
  const std::uint64_t length = args.get_uint_or("length", 100'000);

  // 1. Pick a workload (a synthetic SPEC CPU2006 analogue, by name).
  TraceSpec spec;
  try {
    spec = TraceSpec::spec(name, length, /*seed=*/42);
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // 2. Describe the machine: one out-of-order core, private L1, shared L2,
  //    DRAM. Start from the single-core preset and write the fields that
  //    differ; simulate() validates the machine before it runs.
  sim::MachineConfig machine = sim::MachineConfig::single_core_default();
  machine.core.issue_width = 4;
  machine.l1.mshr_entries = 8;

  // 3. Simulate: calibration (perfect-cache CPIexe run) plus the real run,
  //    served through the shared experiment engine.
  const SimulationReport report = simulate(machine, spec);

  // 4. Read the LPM measurement.
  const core::AppMeasurement& m = report.app();
  const core::LpmrSet& lpmr = report.lpmr;

  std::printf("workload            : %s (%llu instructions)\n", name.c_str(),
              static_cast<unsigned long long>(m.instructions));
  std::printf("cycles              : %llu (IPC %.3f, CPIexe %.3f)\n",
              static_cast<unsigned long long>(report.run.cycles),
              1.0 / m.measured_cpi, m.cpi_exe);
  std::printf("L1 C-AMAT           : %.3f cycles/access (AMAT would say %.3f)\n",
              m.l1.camat(), m.l1.amat());
  std::printf("  H=%.2f C_H=%.2f pMR=%.4f pAMP=%.2f C_M=%.2f\n", m.l1.H(),
              m.l1.CH(), m.l1.pMR(), m.l1.pAMP(), m.l1.CM());
  std::printf("  conventional: MR=%.4f AMP=%.2f C_m=%.2f eta1=%.3f\n", m.mr1,
              m.l1.AMP(), m.l1.Cm(), m.l1.eta1());
  std::printf("layered matching    : LPMR1=%.2f LPMR2=%.2f LPMR3=%.2f\n",
              lpmr.lpmr1, lpmr.lpmr2, lpmr.lpmr3);
  std::printf("data stall          : %.4f cycles/instr (%.1f%% of CPI), "
              "overlap ratio %.3f\n",
              m.measured_stall_per_instr,
              100.0 * m.measured_stall_per_instr / m.measured_cpi,
              m.overlap_ratio);
  std::printf("Eq.7 check          : fmem*C-AMAT1*(1-overlap) = %.4f\n",
              core::stall_eq7(m));
  return 0;
}
