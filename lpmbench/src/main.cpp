// lpm_bench: the end-to-end, layer-by-layer benchmark of LPM design-space
// exploration. See lpmbench/README.md for the workloads, the metrics and
// how to read a traced run.
//
//   lpm_bench --workload walk|nuca|screen --seed N --seconds S --trace 0|1
//             [--threads T] [--workdir DIR] [--expected FILE]
//             [--spans-out FILE] [--record-expected FILE]
//
// It repeats the workload's question until the answers have taken --seconds
// in total, checks every answer against --expected, and prints one JSON
// object as its last line of standard output:
//   --trace 0  the end-to-end metrics, measured with tracing off;
//   --trace 1  the per-layer metrics: untraced and traced answers
//              alternate (their wall-time ratio is the tracing overhead),
//              and the first traced answer's cycle-accurate points are
//              re-simulated on the traced composition.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "composition.hpp"
#include "spans.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace lpmbench;

/// Answers needed before a run may stop, whatever --seconds says.
constexpr std::size_t kMinAnswers = 3;
/// A run stops starting new answers after this long, so it exits in time.
constexpr double kHardStopSeconds = 120.0;
/// Cycle-accurate points re-simulated on the traced composition.
constexpr std::size_t kReplayLimit = 48;
/// Set-ups timed on their own after each answer, until either bound is
/// reached, so they sample the whole run; setup_s is the median over these
/// and the answers' own set-ups.
constexpr int kSetupTrialsPerAnswer = 25;
constexpr double kSetupTrialSecondsPerAnswer = 0.15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;
  std::string workdir = ".bench_build/run";
  std::string expected;
  std::string spans_out;
  std::string record_expected;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lpm_bench: " << why
            << "\nusage: lpm_bench --workload walk|nuca|screen --seed N "
               "--seconds S --trace 0|1 [--threads T] [--workdir DIR] "
               "[--expected FILE] [--spans-out FILE] [--record-expected FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--threads") a.threads = static_cast<unsigned>(std::stoul(value));
      else if (key == "--workdir") a.workdir = value;
      else if (key == "--expected") a.expected = value;
      else if (key == "--spans-out") a.spans_out = value;
      else if (key == "--record-expected") a.record_expected = value;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!known_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (a.expected.empty() && a.record_expected.empty()) usage("--expected is required");
  if (a.threads == 0) {
    a.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  }
  return a;
}

/// Stored answers of `workload` on `seed`: the lines
/// "<seed><TAB><workload>.<key><TAB><value>". Empty for a seed with none.
std::map<std::string, std::string> load_expected(const std::string& path,
                                                 const std::string& workload,
                                                 std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) usage("cannot read expected answers from " + path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string line_seed, key, value;
    if (!std::getline(fields, line_seed, '\t') || !std::getline(fields, key, '\t') ||
        !std::getline(fields, value)) {
      continue;
    }
    if (line_seed == std::to_string(seed) && key.rfind(workload + ".", 0) == 0) {
      out[key] = value;
    }
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F field) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(static_cast<double>(field(r)));
  return out;
}

template <typename F>
double mean(const std::vector<Rep>& reps, F field) {
  if (reps.empty()) return 0.0;
  double sum = 0.0;
  for (const Rep& r : reps) sum += static_cast<double>(field(r));
  return sum / static_cast<double>(reps.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void end_to_end_metrics(const std::vector<Rep>& reps,
                        std::vector<double> setups, MetricsJson& m) {
  std::vector<double> points;
  double instr = 0.0;
  double busy = 0.0;
  for (const Rep& r : reps) {
    points.insert(points.end(), r.point_ms.begin(), r.point_ms.end());
    instr += r.cycle_instructions;
    busy += r.cycle_busy_s;
  }
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  m.add("setup_s", median(setups), "s");
  m.add("wall_s", median(collect(reps, [](const Rep& r) { return r.wall_s; })), "s");
  m.add("point_ms_p50", percentile(points, 0.5), "ms");
  m.add("point_ms_p95", percentile(points, 0.95), "ms");
  m.add("sim_minstr_per_s", ratio(instr, busy) / 1e6, "Minstr/s");
  m.add("peak_rss_mb", reps.front().peak_rss_mb, "MB");
  m.add("model_mr1_err", median(reps.front().mr1_rel_err), "ratio");
  std::printf("samples: %zu set-ups, %zu answers, %zu points\n", setups.size(),
              reps.size(), points.size());
}

void per_layer_metrics(const std::vector<Rep>& plain,
                       const std::vector<Rep>& traced, const LayerTimes& L,
                       const SpanLog& spans, double error_rate,
                       MetricsJson& m) {
  const auto totals = spans.totals();
  const auto span_s = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto n = static_cast<double>(traced.size());
  const auto per_answer = [&](const std::string& name) { return span_s(name) / n; };

  m.add("trace.fill_s", L.fill_s, "s");
  m.add("trace.ops", static_cast<double>(L.trace_ops), "count");
  m.add("trace.ns_per_op", ratio(1e9 * L.fill_s, static_cast<double>(L.trace_ops)), "ns");
  m.add("trace.record_s", mean(traced, [](const Rep& r) { return r.record_s; }), "s");

  const auto cycles = static_cast<double>(L.cycles);
  m.add("cpu.tick_s", L.cpu_s, "s");
  m.add("cpu.share", ratio(L.cpu_s, L.loop_s), "ratio");
  m.add("cpu.ns_per_cycle", ratio(1e9 * L.cpu_s, cycles), "ns");
  m.add("cpu.instructions", static_cast<double>(L.instructions), "count");
  m.add("cpu.data_stall_cycles", static_cast<double>(L.data_stall_cycles), "count");
  m.add("cpu.l1_rejections", static_cast<double>(L.l1_rejections), "count");

  m.add("l1.tick_s", L.l1_s, "s");
  m.add("l2.tick_s", L.l2_s, "s");
  m.add("dram.tick_s", L.dram_s, "s");
  m.add("l1.share", ratio(L.l1_s, L.loop_s), "ratio");
  m.add("l2.share", ratio(L.l2_s, L.loop_s), "ratio");
  m.add("dram.share", ratio(L.dram_s, L.loop_s), "ratio");
  m.add("l1.accesses", static_cast<double>(L.l1_accesses), "count");
  m.add("l1.misses", static_cast<double>(L.l1_misses), "count");
  m.add("l1.mshr_full_waits", static_cast<double>(L.l1_mshr_full_waits), "count");
  m.add("l2.accesses", static_cast<double>(L.l2_accesses), "count");
  m.add("l2.misses", static_cast<double>(L.l2_misses), "count");
  m.add("dram.reads", static_cast<double>(L.dram_reads), "count");
  m.add("dram.row_conflicts", static_cast<double>(L.dram_row_conflicts), "count");

  m.add("camat.probe_s", L.camat_s, "s");
  m.add("camat.share", ratio(L.camat_s, L.loop_s), "ratio");
  m.add("camat.events", static_cast<double>(L.camat_events), "count");

  m.add("sim.loop_s", L.sim_loop_s, "s");
  m.add("sim.ns_per_cycle", ratio(1e9 * L.loop_s, cycles), "ns");
  m.add("sim.ns_per_instr", ratio(1e9 * L.loop_s, static_cast<double>(L.instructions)), "ns");
  m.add("sim.runs", static_cast<double>(L.runs), "count");

  const double wall = mean(traced, [](const Rep& r) { return r.wall_s; });
  const double busy = mean(traced, [](const Rep& r) { return r.busy_s; });
  const double threads = mean(traced, [](const Rep& r) { return r.threads; });
  m.add("exp.jobs", mean(traced, [](const Rep& r) { return r.jobs; }), "count");
  m.add("exp.sims_executed", mean(traced, [](const Rep& r) { return r.sims_executed; }), "count");
  m.add("exp.cache_hits", mean(traced, [](const Rep& r) { return r.cache_hits; }), "count");
  m.add("exp.jobs_failed", mean(traced, [](const Rep& r) { return r.jobs_failed; }), "count");
  m.add("exp.retries", mean(traced, [](const Rep& r) { return r.retries; }), "count");
  m.add("exp.busy_s", busy, "s");
  m.add("exp.idle_s", std::max(0.0, threads * wall - busy), "s");
  m.add("exp.speedup", ratio(busy, wall), "ratio");

  const double on_path = mean(traced, [](const Rep& r) { return r.on_path_configs; });
  const double configs = mean(traced, [](const Rep& r) { return r.configs_simulated; });
  m.add("core.steps", mean(traced, [](const Rep& r) { return r.steps; }), "count");
  m.add("core.configs_simulated", configs, "count");
  m.add("core.useful_ratio", ratio(on_path, configs), "ratio");
  m.add("core.measure_s", per_answer("core.measure"), "s");
  m.add("core.prefetch_s", per_answer("core.prefetch"), "s");

  double eval_p50 = 0.0;
  double evals = 0.0;
  if (const auto it = totals.find("model.evaluate_analytic"); it != totals.end()) {
    eval_p50 = median(it->second.self_us);
    evals = static_cast<double>(it->second.count) / n;
  }
  m.add("model.profile_s", per_answer("model.reuse"), "s");
  m.add("model.calib_s", per_answer("model.calibration"), "s");
  m.add("model.eval_us_p50", eval_p50, "us");
  m.add("model.evals", evals, "count");
  m.add("model.profile_builds", mean(traced, [](const Rep& r) { return r.profile_builds; }), "count");
  m.add("model.calibration_runs", mean(traced, [](const Rep& r) { return r.calibration_runs; }), "count");

  m.add("sched.profile_s", per_answer("sched.profile_many"), "s");
  m.add("sched.corun_s", per_answer("sched.evaluate_schedules"), "s");
  m.add("sched.assign_ms", 1e3 * per_answer("sched.assign"), "ms");

  const double plain_wall = median(collect(plain, [](const Rep& r) { return r.wall_s; }));
  const double traced_wall = median(collect(traced, [](const Rep& r) { return r.wall_s; }));
  m.add("traced.overhead", ratio(traced_wall, plain_wall) - 1.0, "ratio");
  m.add("error_rate", error_rate, "ratio");
}

int run(const Args& a) {
  lpm::util::set_log_level(lpm::util::LogLevel::kWarn);
  const bool recording = !a.record_expected.empty();
  const auto expected =
      recording ? std::map<std::string, std::string>{}
                : load_expected(a.expected, a.workload, a.seed);
  const BenchConfig cfg{a.workload, a.seed, a.threads, a.workdir};

  SpanLog spans;
  install_rdh_executor(&spans);
  LayerTimes layers;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::uint64_t rep_errors = 0;
  double answered_s = 0.0;
  const std::int64_t t_start = now_ns();
  std::vector<double> setups;
  const auto setup_trials = [&] {
    Extras trial;
    trial.setup_only = true;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSetupTrialsPerAnswer &&
                    1e-9 * static_cast<double>(now_ns() - t0) < kSetupTrialSecondsPerAnswer;
         ++i) {
      setups.push_back(run_rep(cfg, -1 - static_cast<int>(setups.size()), &spans, trial).setup_s);
    }
  };
  for (int r = 0;; ++r) {
    const bool tracing = a.trace && r % 2 == 1;
    Extras extras;
    extras.accuracy = !a.trace && plain.empty();
    if (tracing && traced.empty()) {
      extras.replay = &layers;
      extras.replay_limit = kReplayLimit;
    }
    spans.set_enabled(tracing);
    try {
      Rep rep = run_rep(cfg, r, &spans, extras);
      answered_s += rep.wall_s;
      std::fprintf(stderr, "answer %d%s: set-up %.6f s, wall %.4f s\n", r,
                   tracing ? " (traced)" : "", rep.setup_s, rep.wall_s);
      if (!a.trace && !recording) setup_trials();
      (tracing ? traced : plain).push_back(std::move(rep));
    } catch (const std::exception& e) {
      std::cerr << "lpm_bench: answer " << r << " failed: " << e.what() << "\n";
      if (++rep_errors > 3) return 1;
    }
    spans.set_enabled(false);
    if (recording && !plain.empty()) break;
    const bool enough = answered_s >= a.seconds && plain.size() >= kMinAnswers &&
                        (!a.trace || !traced.empty());
    if (enough || 1e-9 * static_cast<double>(now_ns() - t_start) > kHardStopSeconds) {
      break;
    }
  }
  if (plain.empty() || (a.trace && traced.empty())) return 1;

  if (recording) {
    std::ofstream out(a.record_expected, std::ios::app);
    for (const auto& [key, value] : plain.front().answers) {
      out << a.seed << '\t' << key << '\t' << value << '\n';
    }
    return out ? 0 : 1;
  }

  // Operations: engine jobs, answer checks, and replayed points. On a seed
  // with stored answers every answer is compared with them; on every seed
  // the workload's properties must hold and every answer of the run must
  // equal the first (the engine's workers may not change it).
  const std::map<std::string, std::string>& first = plain.front().answers;
  std::uint64_t attempted = rep_errors;
  std::uint64_t failed = rep_errors;
  const auto compare = [&](const std::map<std::string, std::string>& want,
                           const Rep& rep, const char* against) {
    for (const auto& [key, value] : want) {
      ++attempted;
      const auto it = rep.answers.find(key);
      const std::string got = it == rep.answers.end() ? "<missing>" : it->second;
      if (got != value) {
        ++failed;
        std::cerr << "answer mismatch (" << against << "): " << key
                  << ": got '" << got << "', expected '" << value << "'\n";
      }
    }
  };
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& rep : *reps) {
      attempted += rep.jobs + rep.replayed;
      failed += rep.jobs_failed + rep.replay_mismatches;
      compare(expected, rep, "stored");
      if (&rep != &plain.front()) compare(first, rep, "first answer");
      for (const auto& [name, holds] : rep.checks) {
        ++attempted;
        if (!holds) {
          ++failed;
          std::cerr << "check failed: " << name << "\n";
        }
      }
      if (rep.replay_mismatches > 0) {
        std::cerr << "traced composition: " << rep.replay_mismatches << " of "
                  << rep.replayed << " points differ from sim::System\n";
      }
    }
  }
  std::printf("answer checks: %zu stored answers for seed %llu\n",
              expected.size(), static_cast<unsigned long long>(a.seed));

  MetricsJson metrics;
  if (a.trace) {
    per_layer_metrics(plain, traced, layers, spans,
                      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                      metrics);
    if (!a.spans_out.empty() && !spans.write_jsonl(a.spans_out)) {
      std::cerr << "lpm_bench: cannot write spans to " << a.spans_out << "\n";
    }
    std::printf("traced: %zu answers untraced, %zu traced, %zu spans, "
                "%llu points re-simulated\n",
                plain.size(), traced.size(), spans.size(),
                static_cast<unsigned long long>(layers.runs));
  } else {
    end_to_end_metrics(plain, std::move(setups), metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "lpm_bench: " << e.what() << "\n";
    return 1;
  }
}
