#include "perf_lib.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/design_space.hpp"
#include "exp/experiment_engine.hpp"
#include "model/analytic.hpp"
#include "model/backend.hpp"
#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"
#include "util/table.hpp"

namespace lpm::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return 1e-9 * static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count());
}

/// The machine variants of the System::run phase: the default machine plus
/// the L1-size neighbours the LPM walk visits first.
std::vector<sim::MachineConfig> sim_phase_machines(unsigned count) {
  std::vector<sim::MachineConfig> machines;
  const std::uint64_t l1_sizes[] = {32 * 1024, 16 * 1024, 64 * 1024,
                                    8 * 1024, 128 * 1024};
  for (unsigned i = 0; i < count; ++i) {
    sim::MachineConfig m = sim::MachineConfig::single_core_default();
    m.l1.size_bytes = l1_sizes[i % (sizeof(l1_sizes) / sizeof(l1_sizes[0]))];
    machines.push_back(std::move(m));
  }
  return machines;
}

/// The memory-bound phase's machine: a typical lpmbench `screen` winner
/// (config A with 3 L1 ports, 32 MSHRs and L2 interleave 1) on the
/// smallest `screen` geometry (16 KB 2-way L1, 512 KB L2).
sim::MachineConfig membound_machine() {
  sim::MachineConfig base = sim::MachineConfig::single_core_default();
  base.l1.size_bytes = 16 * 1024;
  base.l1.associativity = 2;
  base.l2.size_bytes = 512 * 1024;
  core::ArchKnobs knobs = core::ArchKnobs::config_a();
  knobs.l1_ports = 3;
  knobs.mshr_entries = 32;
  knobs.l2_interleave = 1;
  return knobs.apply(base);
}

/// Best-effort page-cache eviction so the cold pass actually pays the
/// read-in. fsync first (dirty pages cannot be dropped), then advise
/// DONTNEED. Both are advisory; on a runner where they do nothing the cold
/// number degrades to a warm one, which only makes the gate easier.
void evict_page_cache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// Drains `source` to exhaustion in simulator-sized chunks, returning the
/// op count. The end-of-stream checksum verification happens inside —
/// deliberately part of the timed ingestion cost.
std::uint64_t drain_all(trace::TraceSource& source) {
  static thread_local std::vector<trace::MicroOp> chunk(1u << 14);
  std::uint64_t total = 0;
  for (;;) {
    const std::size_t got = source.fill(chunk.data(), chunk.size());
    total += got;
    if (got < chunk.size()) return total;
  }
}

}  // namespace

PerfReport run_perf_suite(const PerfOptions& opts) {
  util::require(opts.sim_configs >= 1, "PerfOptions: sim_configs must be >= 1");
  util::require(opts.engine_jobs >= 1, "PerfOptions: engine_jobs must be >= 1");
  util::require(opts.engine_submitters >= 1,
                "PerfOptions: engine_submitters must be >= 1");

  PerfReport report;
  const trace::WorkloadProfile workload =
      trace::spec_profile(trace::SpecBenchmark::kBwaves, opts.length, 17);

  // Phase 1: serial System::run throughput (the per-configuration cost the
  // LPM walk pays at every step).
  {
    const auto machines = sim_phase_machines(opts.sim_configs);
    const auto start = Clock::now();
    for (const auto& machine : machines) {
      std::vector<trace::TraceSourcePtr> traces;
      traces.push_back(std::make_unique<trace::SyntheticTrace>(workload));
      sim::System system(machine, std::move(traces));
      const sim::SystemResult run = system.run();
      report.cycles += run.cycles;
      for (const auto& core : run.cores) report.instructions += core.instructions;
    }
    report.wall_seconds_simulate = seconds_since(start);
  }

  // Phase 1b: the same serial loop in the memory-bound regime, where the
  // memory hierarchy rather than the core dominates host time.
  if (opts.membound_length >= 1) {
    const sim::MachineConfig machine = membound_machine();
    const auto start = Clock::now();
    // Irregular, reuse-heavy and streaming misses.
    for (const trace::SpecBenchmark b :
         {trace::SpecBenchmark::kGcc, trace::SpecBenchmark::kGamess,
          trace::SpecBenchmark::kMilc, trace::SpecBenchmark::kLibquantum}) {
      std::vector<trace::TraceSourcePtr> traces;
      traces.push_back(std::make_unique<trace::SyntheticTrace>(
          trace::spec_profile(b, opts.membound_length, 23)));
      sim::System system(machine, std::move(traces));
      const sim::SystemResult run = system.run();
      report.membound_cycles += run.cycles;
      for (const auto& core : run.cores) {
        report.membound_instructions += core.instructions;
      }
    }
    report.wall_seconds_membound = seconds_since(start);
  }

  // Phase 1c: one 16-core co-run on the shared-L2 NUCA machine, the
  // per-schedule cost of the Fig. 8 case study.
  // One run spreads about 25% between runs on an idle host: report the
  // median of three timings.
  if (opts.corun_length >= 1) {
    std::array<double, 3> walls{};
    for (double& wall : walls) {
      std::vector<trace::TraceSourcePtr> traces;
      for (const trace::SpecBenchmark b : trace::all_spec_benchmarks()) {
        traces.push_back(std::make_unique<trace::SyntheticTrace>(
            trace::spec_profile(b, opts.corun_length, 29)));
      }
      const auto start = Clock::now();
      sim::System system(sim::MachineConfig::nuca16(), std::move(traces));
      report.corun_cycles = system.run().cycles;
      wall = seconds_since(start);
    }
    std::sort(walls.begin(), walls.end());
    report.wall_seconds_corun = walls[1];
  }

  // Phase 2: engine saturating sweep. Many distinct near-zero-cost jobs
  // (the registered null backend) pushed from several submitter threads
  // into one worker pool — all contention lands on the engine's job queue
  // and outcome bookkeeping, which is exactly what engine_jobs_per_sec
  // gates. Jobs are pre-built outside the timed region.
  {
    exp::ExperimentEngine::register_backend_executor(
        kNullBackend, [](const exp::SimJob&, const sim::RunGuard*) {
          exp::SimJobResult out;
          out.run.completed = true;
          out.run.cycles = 1;
          return out;
        });
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned pool_threads = opts.engine_threads > 0
                                      ? opts.engine_threads
                                      : std::max(hw == 0 ? 1u : hw, 4u);
    exp::ExperimentEngine engine(exp::ExperimentEngine::Options{
        .threads = pool_threads, .cache_bytes = 0});

    const unsigned submitters = opts.engine_submitters;
    std::vector<std::vector<exp::SimJob>> slices(submitters);
    for (unsigned i = 0; i < opts.engine_jobs; ++i) {
      trace::WorkloadProfile w = workload;
      w.seed = 100 + i;  // distinct points, same (tiny) cost
      exp::SimJob job = exp::SimJob::solo(
          sim::MachineConfig::single_core_default(), std::move(w),
          /*calibrate=*/false, "perf-saturate");
      job.backend = kNullBackend;
      slices[i % submitters].push_back(std::move(job));
    }

    std::atomic<std::uint64_t> executed{0};
    const auto start = Clock::now();
    if (submitters == 1) {
      executed += engine.run_batch(slices[0]).size();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(submitters);
      for (unsigned s = 0; s < submitters; ++s) {
        threads.emplace_back([&engine, &executed, &slices, s] {
          executed += engine.run_batch(slices[s]).size();
        });
      }
      for (auto& t : threads) t.join();
    }
    report.wall_seconds_engine = seconds_since(start);
    report.jobs = executed.load();
  }

  // Phase 3: analytic screening throughput. The same distinct
  // configurations through the "rdh" backend on every SPEC-like profile —
  // dense reuse histograms and sparse streaming ones — with each profile's
  // one-off reuse profile and CPIexe calibration, and every geometry's
  // miss table, warmed first: the steady state of a multi-fidelity sweep,
  // where those are paid once and every configuration afterwards is
  // closed-form.
  //
  // Every timed pass meets cold evaluation contexts, so it times the
  // evaluations and not a replay of the demand passes an earlier pass
  // left in the contexts' memos: each pass gives its jobs a private-L2
  // size of its own. That field is in the context key but unread by a
  // two-level machine, so the passes do the same work.
  if (opts.analytic_configs >= 1) {
    model::register_analytic_executors();
    exp::ExperimentEngine engine(exp::ExperimentEngine::Options{
        .threads = opts.engine_threads, .cache_bytes = 0});

    const auto batch = [&](std::uint64_t pass) {
      std::vector<exp::SimJob> jobs;
      for (const trace::SpecBenchmark b : trace::all_spec_benchmarks()) {
        const trace::WorkloadProfile wl =
            trace::spec_profile(b, opts.length, 17);
        for (unsigned i = 0; i < opts.analytic_configs; ++i) {
          sim::MachineConfig m = sim::MachineConfig::single_core_default();
          m.l1.size_bytes = (4u * 1024u) << (i % 8);  // 4K .. 512K
          m.l1.mshr_entries = 4u << (i / 8 % 4);      // 4, 8, 16, 32
          m.l2.size_bytes <<= (i / 32 % 2);
          m.private_l2.size_bytes = (64u * 1024u) << pass;
          exp::SimJob job = exp::SimJob::solo(
              std::move(m), wl, /*calibrate=*/true, "perf-analytic");
          job.backend = model::kRdhBackend;
          jobs.push_back(std::move(job));
        }
      }
      return jobs;
    };
    // Warm: the first profile's configurations (every geometry's miss
    // table) and one configuration of every other profile.
    const std::vector<exp::SimJob> untimed = batch(3);
    const std::size_t n = opts.analytic_configs;
    std::vector<exp::SimJob> warm(untimed.begin(), untimed.begin() + n);
    for (std::size_t i = 2 * n - 1; i < untimed.size(); i += n) {
      warm.push_back(untimed[i]);
    }
    (void)engine.run_batch(warm);

    // The batch takes a few tens of milliseconds, so one preempted run on
    // a shared host can cost a third of the rate: report the median of
    // three timings.
    std::array<double, 3> walls{};
    for (std::uint64_t pass = 0; pass < walls.size(); ++pass) {
      const std::vector<exp::SimJob> jobs = batch(pass);
      const std::uint64_t contexts = model::eval_context_builds();
      const auto start = Clock::now();
      report.analytic_configs = engine.run_batch(jobs).size();
      walls[pass] = seconds_since(start);
      util::require(model::eval_context_builds() > contexts,
                    "perf: an analytic pass found its contexts warm");
    }
    std::sort(walls.begin(), walls.end());
    report.wall_seconds_analytic = walls[1];
  }

  // Phase 4a: trace synthesis. make_trace + fill() over every SPEC-like
  // profile, so the Zipf table builds count too. The pass takes a few tens
  // of milliseconds: report the median of three timings.
  if (opts.synth_length >= 1) {
    std::vector<trace::MicroOp> chunk(trace::kIoBatchOps);
    std::array<double, 3> walls{};
    for (double& wall : walls) {
      std::uint64_t ops = 0;
      const auto start = Clock::now();
      for (const trace::SpecBenchmark b : trace::all_spec_benchmarks()) {
        const trace::TraceSourcePtr source =
            trace::make_trace(trace::spec_profile(b, opts.synth_length, 31));
        while (const std::size_t got =
                   source->fill(chunk.data(), chunk.size())) {
          ops += got;
        }
      }
      wall = seconds_since(start);
      report.synth_ops = ops;
    }
    std::sort(walls.begin(), walls.end());
    report.wall_seconds_synth = walls[1];
  }

  // Phase 4b: trace ingestion through the LPM2 reader. Cold: evict the file
  // from the page cache, then drain it, so every chunk read goes to the
  // device. Warm: a fresh reader over the now-hot file. Both passes drain
  // to exhaustion, so checksum verification is inside the timed region.
  if (opts.trace_ops >= 1 || !opts.trace_file.empty()) {
    std::string path = opts.trace_file;
    std::string temp_path;
    if (path.empty()) {
      trace::WorkloadProfile w = workload;
      w.length = opts.trace_ops;
      trace::SyntheticTrace source(w);
      temp_path = (std::filesystem::temp_directory_path() /
                   ("lpm-perf-ingest-" + std::to_string(::getpid()) + ".lpm2"))
                      .string();
      trace::record_trace_v2(source, temp_path);
      path = temp_path;
    }
    evict_page_cache(path);
    {
      trace::Lpm2Trace cold(path, "perf-ingest-cold");
      const auto start = Clock::now();
      report.trace_ops = drain_all(cold);
      report.wall_seconds_trace_cold = seconds_since(start);
    }
    {
      trace::Lpm2Trace warm(path, "perf-ingest-warm");
      const auto start = Clock::now();
      (void)drain_all(warm);
      report.wall_seconds_trace_warm = seconds_since(start);
    }
    if (!temp_path.empty()) std::remove(temp_path.c_str());
  }

  const auto rate = [](double amount, double wall) {
    return wall > 0.0 ? amount / wall : 0.0;
  };
  report.sim_cycles_per_sec =
      rate(static_cast<double>(report.cycles), report.wall_seconds_simulate);
  report.instructions_per_sec = rate(static_cast<double>(report.instructions),
                                     report.wall_seconds_simulate);
  report.sim_membound_cycles_per_sec = rate(
      static_cast<double>(report.membound_cycles), report.wall_seconds_membound);
  report.sim_corun_cycles_per_sec = rate(
      static_cast<double>(report.corun_cycles), report.wall_seconds_corun);
  report.engine_jobs_per_sec =
      rate(static_cast<double>(report.jobs), report.wall_seconds_engine);
  report.analytic_configs_per_sec =
      rate(static_cast<double>(report.analytic_configs),
           report.wall_seconds_analytic);
  report.trace_synth_ops_per_sec = rate(static_cast<double>(report.synth_ops),
                                        report.wall_seconds_synth);
  report.trace_cold_ops_per_sec = rate(static_cast<double>(report.trace_ops),
                                       report.wall_seconds_trace_cold);
  report.trace_warm_ops_per_sec = rate(static_cast<double>(report.trace_ops),
                                       report.wall_seconds_trace_warm);
  return report;
}

std::string to_json(const PerfReport& r) {
  return util::JsonWriter()
             .str("bench", r.bench)
             .num_u64("cycles", r.cycles)
             .num_u64("instructions", r.instructions)
             .num_u64("jobs", r.jobs)
             .num_u64("analytic_configs", r.analytic_configs)
             .fixed("wall_seconds_simulate", r.wall_seconds_simulate, 6)
             .fixed("wall_seconds_engine", r.wall_seconds_engine, 6)
             .fixed("wall_seconds_analytic", r.wall_seconds_analytic, 6)
             .fixed("sim_cycles_per_sec", r.sim_cycles_per_sec, 1)
             .fixed("instructions_per_sec", r.instructions_per_sec, 1)
             .num_u64("membound_cycles", r.membound_cycles)
             .num_u64("membound_instructions", r.membound_instructions)
             .fixed("wall_seconds_membound", r.wall_seconds_membound, 6)
             .fixed("sim_membound_cycles_per_sec",
                    r.sim_membound_cycles_per_sec, 1)
             .num_u64("corun_cycles", r.corun_cycles)
             .fixed("wall_seconds_corun", r.wall_seconds_corun, 6)
             .fixed("sim_corun_cycles_per_sec", r.sim_corun_cycles_per_sec, 1)
             .fixed("engine_jobs_per_sec", r.engine_jobs_per_sec, 3)
             .fixed("analytic_configs_per_sec", r.analytic_configs_per_sec, 1)
             .num_u64("trace_ops", r.trace_ops)
             .fixed("wall_seconds_trace_cold", r.wall_seconds_trace_cold, 6)
             .fixed("wall_seconds_trace_warm", r.wall_seconds_trace_warm, 6)
             .fixed("trace_cold_ops_per_sec", r.trace_cold_ops_per_sec, 1)
             .fixed("trace_warm_ops_per_sec", r.trace_warm_ops_per_sec, 1)
             .num_u64("synth_ops", r.synth_ops)
             .fixed("wall_seconds_synth", r.wall_seconds_synth, 6)
             .fixed("trace_synth_ops_per_sec", r.trace_synth_ops_per_sec, 1)
             .finish() +
         "\n";
}

PerfReport parse_report(const std::string& json_text) {
  const util::FlatJson json = util::FlatJson::parse(json_text);
  PerfReport r;
  const auto need = [&json](const std::string& key) {
    const auto v = json.get_number(key);
    if (!v.has_value()) {
      throw util::LpmError("PerfReport: missing or non-numeric key '" + key +
                           "'");
    }
    return *v;
  };
  r.bench = json.get_string("bench").value_or("");
  if (r.bench.empty()) throw util::LpmError("PerfReport: missing key 'bench'");
  r.cycles = static_cast<std::uint64_t>(need("cycles"));
  r.instructions = static_cast<std::uint64_t>(need("instructions"));
  r.jobs = static_cast<std::uint64_t>(need("jobs"));
  r.wall_seconds_simulate = need("wall_seconds_simulate");
  r.wall_seconds_engine = need("wall_seconds_engine");
  r.sim_cycles_per_sec = need("sim_cycles_per_sec");
  r.instructions_per_sec = need("instructions_per_sec");
  r.engine_jobs_per_sec = need("engine_jobs_per_sec");
  // Optional — absent in reports/baselines written before the analytic
  // screening phase; 0 means "not measured" and is never gated.
  r.analytic_configs = static_cast<std::uint64_t>(
      json.get_number("analytic_configs").value_or(0.0));
  r.wall_seconds_analytic =
      json.get_number("wall_seconds_analytic").value_or(0.0);
  r.analytic_configs_per_sec =
      json.get_number("analytic_configs_per_sec").value_or(0.0);
  // Optional — absent before the memory-bound phase; 0 = not measured.
  r.membound_cycles = static_cast<std::uint64_t>(
      json.get_number("membound_cycles").value_or(0.0));
  r.membound_instructions = static_cast<std::uint64_t>(
      json.get_number("membound_instructions").value_or(0.0));
  r.wall_seconds_membound =
      json.get_number("wall_seconds_membound").value_or(0.0);
  r.sim_membound_cycles_per_sec =
      json.get_number("sim_membound_cycles_per_sec").value_or(0.0);
  // Optional — absent before the co-run phase; 0 = not measured.
  r.corun_cycles = static_cast<std::uint64_t>(
      json.get_number("corun_cycles").value_or(0.0));
  r.wall_seconds_corun = json.get_number("wall_seconds_corun").value_or(0.0);
  r.sim_corun_cycles_per_sec =
      json.get_number("sim_corun_cycles_per_sec").value_or(0.0);
  // Optional — absent before the trace-ingestion phase; 0 = not measured.
  r.trace_ops =
      static_cast<std::uint64_t>(json.get_number("trace_ops").value_or(0.0));
  r.wall_seconds_trace_cold =
      json.get_number("wall_seconds_trace_cold").value_or(0.0);
  r.wall_seconds_trace_warm =
      json.get_number("wall_seconds_trace_warm").value_or(0.0);
  r.trace_cold_ops_per_sec =
      json.get_number("trace_cold_ops_per_sec").value_or(0.0);
  r.trace_warm_ops_per_sec =
      json.get_number("trace_warm_ops_per_sec").value_or(0.0);
  // Optional — absent before the synthesis phase; 0 = not measured.
  r.synth_ops =
      static_cast<std::uint64_t>(json.get_number("synth_ops").value_or(0.0));
  r.wall_seconds_synth = json.get_number("wall_seconds_synth").value_or(0.0);
  r.trace_synth_ops_per_sec =
      json.get_number("trace_synth_ops_per_sec").value_or(0.0);
  return r;
}

PerfReport load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw util::IoError("perf: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_report(text.str());
}

BaselineCheck check_against_baseline(const PerfReport& current,
                                     const PerfReport& baseline,
                                     double tolerance) {
  util::require(tolerance >= 0.0 && tolerance < 1.0,
                "perf: tolerance must be in [0, 1)");
  BaselineCheck check;
  const auto gate = [&](const char* metric, double now, double base) {
    const double floor = base * (1.0 - tolerance);
    if (now < floor) {
      std::ostringstream os;
      os << metric << " regressed: " << util::fmt(now, 1) << " < floor "
         << util::fmt(floor, 1) << " (baseline " << util::fmt(base, 1)
         << ", tolerance " << util::fmt(100.0 * tolerance, 0) << "%)";
      check.failures.push_back(os.str());
      check.ok = false;
    }
  };
  gate("sim_cycles_per_sec", current.sim_cycles_per_sec,
       baseline.sim_cycles_per_sec);
  gate("instructions_per_sec", current.instructions_per_sec,
       baseline.instructions_per_sec);
  gate("engine_jobs_per_sec", current.engine_jobs_per_sec,
       baseline.engine_jobs_per_sec);
  if (baseline.sim_membound_cycles_per_sec > 0.0) {
    gate("sim_membound_cycles_per_sec", current.sim_membound_cycles_per_sec,
         baseline.sim_membound_cycles_per_sec);
  }
  if (baseline.sim_corun_cycles_per_sec > 0.0) {
    gate("sim_corun_cycles_per_sec", current.sim_corun_cycles_per_sec,
         baseline.sim_corun_cycles_per_sec);
  }
  if (baseline.analytic_configs_per_sec > 0.0) {
    gate("analytic_configs_per_sec", current.analytic_configs_per_sec,
         baseline.analytic_configs_per_sec);
  }
  if (baseline.trace_synth_ops_per_sec > 0.0) {
    gate("trace_synth_ops_per_sec", current.trace_synth_ops_per_sec,
         baseline.trace_synth_ops_per_sec);
  }
  if (baseline.trace_cold_ops_per_sec > 0.0) {
    gate("trace_cold_ops_per_sec", current.trace_cold_ops_per_sec,
         baseline.trace_cold_ops_per_sec);
  }
  if (baseline.trace_warm_ops_per_sec > 0.0) {
    gate("trace_warm_ops_per_sec", current.trace_warm_ops_per_sec,
         baseline.trace_warm_ops_per_sec);
  }
  return check;
}

}  // namespace lpm::perf
