// Emits BENCH_simulator.json (the simulator's throughput trajectory) and
// optionally gates against a committed baseline — the CI perf-smoke entry
// point. See EXPERIMENTS.md "Performance tracking".
//
//   $ ./perf_simulator [out=BENCH_simulator.json] [baseline=...] \
//                      [tolerance=0.30] [length=400000] [jobs=8192] \
//                      [submitters=4] [threads=0] [analytic=64] \
//                      [trace_ops=2000000] [trace_file=...]
//
// Any other argument (a positional one such as --help, or an unknown key)
// prints this usage and exits 2 before anything is run or written.
#include <cstdio>
#include <fstream>

#include "perf_lib.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perf_simulator [out=BENCH_simulator.json] [baseline=...]\n"
    "                      [tolerance=0.30] [length=400000] [jobs=8192]\n"
    "                      [submitters=4] [threads=0] [analytic=64]\n"
    "                      [trace_ops=2000000] [trace_file=...]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace lpm;
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    const std::string out_path = args.get_or("out", "BENCH_simulator.json");
    const std::string baseline_path = args.get_or("baseline", "");
    const double tolerance = args.get_double_or("tolerance", 0.30);

    perf::PerfOptions opts;
    opts.length = args.get_uint_or("length", opts.length);
    opts.engine_jobs =
        static_cast<unsigned>(args.get_uint_or("jobs", opts.engine_jobs));
    opts.engine_submitters = static_cast<unsigned>(
        args.get_uint_or("submitters", opts.engine_submitters));
    opts.engine_threads =
        static_cast<unsigned>(args.get_uint_or("threads", opts.engine_threads));
    opts.analytic_configs = static_cast<unsigned>(
        args.get_uint_or("analytic", opts.analytic_configs));
    opts.trace_ops = args.get_uint_or("trace_ops", opts.trace_ops);
    opts.trace_file = args.get_or("trace_file", "");
    if (!args.positional().empty() || !args.unused_keys().empty()) {
      std::fputs(kUsage, stderr);
      return 2;
    }

    const perf::PerfReport report = perf::run_perf_suite(opts);
    const std::string json = perf::to_json(report);

    std::ofstream out(out_path);
    if (!out.is_open()) {
      throw util::IoError("perf: cannot write '" + out_path + "'");
    }
    out << json;
    out.close();

    std::printf("wrote %s\n%s", out_path.c_str(), json.c_str());
    std::printf("sim cycles/sec      : %.3e\n", report.sim_cycles_per_sec);
    std::printf("instructions/sec    : %.3e\n", report.instructions_per_sec);
    std::printf("membound cycles/sec : %.3e (IPC %.2f)\n",
                report.sim_membound_cycles_per_sec,
                report.membound_cycles == 0
                    ? 0.0
                    : static_cast<double>(report.membound_instructions) /
                          static_cast<double>(report.membound_cycles));
    std::printf("corun cycles/sec    : %.3e\n", report.sim_corun_cycles_per_sec);
    std::printf("engine jobs/sec     : %.3f\n", report.engine_jobs_per_sec);
    std::printf("analytic configs/sec: %.1f\n", report.analytic_configs_per_sec);
    std::printf("trace synth ops/sec : %.3e\n", report.trace_synth_ops_per_sec);
    std::printf("trace cold ops/sec  : %.3e\n", report.trace_cold_ops_per_sec);
    std::printf("trace warm ops/sec  : %.3e\n", report.trace_warm_ops_per_sec);

    if (!baseline_path.empty()) {
      const perf::PerfReport baseline = perf::load_report(baseline_path);
      const perf::BaselineCheck check =
          perf::check_against_baseline(report, baseline, tolerance);
      if (!check.ok) {
        for (const auto& failure : check.failures) {
          std::fprintf(stderr, "PERF REGRESSION: %s\n", failure.c_str());
        }
        return 1;
      }
      std::printf("baseline check      : OK (>= %.0f%% of %s)\n",
                  100.0 * (1.0 - tolerance), baseline_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_simulator: %s\n", e.what());
    return 2;
  }
}
