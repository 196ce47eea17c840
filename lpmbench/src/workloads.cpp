#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "core/design_space.hpp"
#include "core/lpm_algorithm.hpp"
#include "exp/result_sink.hpp"
#include "model/analytic.hpp"
#include "sched/evaluate.hpp"
#include "sched/scheduler.hpp"
#include "trace/lpm2.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"
#include "util/rng.hpp"

namespace lpmbench {

namespace {

using namespace lpm;
using trace::SpecBenchmark;

// --- workload sizes ---------------------------------------------------------
// Trace lengths keep one answer at a few seconds on four workers, so a run
// of --seconds holds several answers and reports their median.

/// walk: coarse (10%) walks from Table I's configuration A, two traces per
/// profile. Only profiles whose walks reach a decision are used: from A,
/// the streaming and pointer-chasing profiles (bwaves, mcf, libquantum,
/// ...) and every fine (1%) walk but bzip2's run into the iteration cap
/// (see README.md). The eight below converge within 18 steps on every seed
/// tried, about 100 on-path steps per answer.
constexpr std::uint64_t kWalkLength = 100'000;
const std::vector<SpecBenchmark> kWalkProfiles = {
    SpecBenchmark::kPerlbench, SpecBenchmark::kBzip2, SpecBenchmark::kGamess,
    SpecBenchmark::kGromacs,   SpecBenchmark::kNamd,  SpecBenchmark::kGobmk,
    SpecBenchmark::kHmmer,     SpecBenchmark::kSjeng};
constexpr std::size_t kWalkTracesPerProfile = 2;
constexpr int kWalkMaxIterations = 24;

/// nuca: Fig. 8's sixteen programs, four L1 sizes, seeded Random baseline.
constexpr std::uint64_t kNucaLength = 40'000;
const std::vector<std::uint64_t> kNucaL1Sizes = {4096, 16384, 32768, 65536};
constexpr int kRandomSamples = 3;

/// screen: one sweep per (profile, cache geometry); each sweep screens the
/// MSHR x interleave x L1-port grid analytically and confirms its top
/// candidate cycle-accurately. All sixteen profiles: an evaluation's cost
/// depends on the trace, so with a few profiles the point latencies form a
/// few clusters whose places move with the seed, and a percentile that
/// falls between two of them jumps.
constexpr std::uint64_t kScreenLength = 20'000;
const std::vector<SpecBenchmark>& kScreenProfiles = trace::all_spec_benchmarks();
struct Geometry {
  std::uint64_t l1_bytes;
  std::uint32_t l1_ways;
  std::uint64_t l2_bytes;
};
/// An evaluation's cost depends mostly on the geometry, so each geometry is
/// a cluster of equal mass in the point latencies. With five, the median
/// and the 95th percentile fall inside a cluster, not on the edge between
/// two, where a small shift in one cluster would move them.
const std::vector<Geometry> kScreenGeometries = {
    {16 * 1024, 2, 512 * 1024},  {16 * 1024, 8, 2048 * 1024},
    {32 * 1024, 4, 1024 * 1024}, {64 * 1024, 2, 2048 * 1024},
    {64 * 1024, 8, 512 * 1024}};
const std::vector<std::uint32_t> kScreenMshrs = {1, 4, 12, 32, 64};
const std::vector<std::uint32_t> kScreenInterleave = {1, 4, 16, 64, 512};
const std::vector<std::uint32_t> kScreenPorts = {1, 2, 3, 4};
constexpr std::size_t kScreenTopK = 1;
/// Trace length of screen's model_mr1_err set: at 20k ops the median error
/// moves by a fifth from seed to seed, at 100k (walk's length) it settles.
constexpr std::uint64_t kAccuracyLength = 100'000;

/// Salts that give each workload its own trace seeds for one --seed.
constexpr std::uint64_t kWalkSalt = 0x77616c6b;    // "walk"
constexpr std::uint64_t kNucaSalt = 0x6e756361;    // "nuca"
constexpr std::uint64_t kScreenSalt = 0x7363726e;  // "scrn"

// --- one engine per repetition ----------------------------------------------

struct JobRecord {
  std::string backend;
  bool from_cache = false;
  double instructions = 0.0;
  double duration_ms = 0.0;
};

struct EngineCounters {
  std::uint64_t sims = 0, hits = 0, failed = 0, retries = 0;
  double busy_s = 0.0;
};

/// The engine a repetition submits to, with a result sink it reads back
/// for per-job latencies. The sink is declared first so it outlives the
/// engine.
class Session {
 public:
  explicit Session(unsigned threads)
      : sink_(records_, exp::ResultSink::Format::kJsonLines),
        engine_(exp::ExperimentEngine::Options::builder()
                    .threads(threads)
                    .sink(&sink_)
                    .build()) {}

  exp::ExperimentEngine& engine() { return engine_; }

  [[nodiscard]] EngineCounters counters() const {
    return {engine_.simulations_executed(), engine_.cache_hits(),
            engine_.jobs_failed(), engine_.retries_performed(),
            engine_.busy_seconds()};
  }

  /// Records written since the previous call.
  std::vector<JobRecord> take_records() {
    std::vector<JobRecord> out;
    std::istringstream lines(records_.str());
    records_.str("");
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      const util::FlatJson json = util::FlatJson::parse(line);
      JobRecord r;
      r.backend = json.get_string("backend").value_or("");
      r.from_cache = json.get_bool("from_cache").value_or(false);
      r.instructions = json.get_number("instructions").value_or(0.0);
      r.duration_ms = json.get_number("duration_ms").value_or(0.0);
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  std::ostringstream records_;
  exp::ResultSink sink_;
  exp::ExperimentEngine engine_;
};

/// Fills the engine-side fields of `rep` from the timed part's records and
/// counter deltas; cycle-accurate records give the simulator throughput,
/// and records of `point_backend` (if non-empty) are the answer's points.
void account(Rep& rep, Session& session, const EngineCounters& before,
             const std::string& point_backend) {
  const EngineCounters after = session.counters();
  const std::vector<JobRecord> records = session.take_records();
  rep.sims_executed = after.sims - before.sims;
  rep.cache_hits = after.hits - before.hits;
  rep.jobs_failed = after.failed - before.failed;
  rep.retries = after.retries - before.retries;
  rep.busy_s = after.busy_s - before.busy_s;
  rep.jobs = records.size() + rep.jobs_failed;
  rep.threads = session.engine().threads();
  for (const JobRecord& r : records) {
    if (r.from_cache) continue;
    if (r.backend == exp::kCycleBackend) {
      rep.cycle_instructions += r.instructions;
      rep.cycle_busy_s += 1e-3 * r.duration_ms;
    }
    if (!point_backend.empty() && r.backend == point_backend) {
      rep.point_ms.push_back(r.duration_ms);
    }
  }
}

/// Relative MR1 error of the analytic "rdh" backend against the cycle
/// result for each job (the cycle jobs must already be in the memo cache).
void mr1_errors(Rep& rep, exp::ExperimentEngine& engine,
                const std::vector<exp::SimJob>& cycle_jobs) {
  std::vector<exp::SimJob> analytic = cycle_jobs;
  for (exp::SimJob& job : analytic) job.backend = model::kRdhBackend;
  model::register_analytic_executors();
  const auto cycle = engine.run_batch(cycle_jobs);
  const auto rdh = engine.run_batch(analytic);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const double c = cycle[i]->run.mr1(0);
    if (c > 0.0) {
      rep.mr1_rel_err.push_back(std::abs(rdh[i]->run.mr1(0) - c) / c);
    }
  }
}

/// Re-simulates up to `extras.replay_limit` of `jobs` (evenly spaced) on
/// the traced composition and checks each SystemResult against the one
/// sim::System produced for the engine.
void replay_points(Rep& rep, exp::ExperimentEngine& engine,
                   const std::vector<exp::SimJob>& jobs,
                   const Extras& extras) {
  if (extras.replay == nullptr || jobs.empty()) return;
  const std::size_t n = std::min(jobs.size(), extras.replay_limit);
  for (std::size_t k = 0; k < n; ++k) {
    const exp::SimJob& job = jobs[k * jobs.size() / n];
    const std::uint64_t sims_before = engine.simulations_executed();
    const exp::SimResultPtr expected = engine.run(job);
    // A job rebuilt differently from the workload's would miss the memo
    // cache and be simulated here; count it as a mismatch.
    const bool rebuilt_exactly = engine.simulations_executed() == sims_before;
    const sim::SystemResult got = replay(job, *extras.replay);
    ++rep.replayed;
    if (!rebuilt_exactly || !(got == expected->run)) ++rep.replay_mismatches;
  }
}

/// Input order for this seed: a seeded Fisher-Yates permutation.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed ^ 0x6c706d62656e6368ULL);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

/// Trace seeds of `n` inputs, drawn from the benchmark seed: the same
/// --seed gives the same traces, another --seed other traces.
std::vector<std::uint64_t> trace_seeds(std::size_t n, std::uint64_t seed,
                                       std::uint64_t salt) {
  util::Rng rng(seed ^ salt);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& s : out) s = rng.next_u64();
  return out;
}

/// A synthetic profile renamed for this run and repetition. The name is
/// part of a synthetic workload's fingerprint but not of its trace, so the
/// renamed workload replays the same ops while every cache keyed on the
/// fingerprint starts cold.
trace::WorkloadProfile fresh_profile(SpecBenchmark b, std::uint64_t length,
                                     std::uint64_t trace_seed,
                                     std::uint64_t seed, int rep) {
  trace::WorkloadProfile wl = trace::spec_profile(b, length, trace_seed);
  wl.name += "~s" + std::to_string(seed) + "r" + std::to_string(rep);
  return wl;
}

double seconds_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

/// CPU time of the calling thread. Time the thread waits for a CPU does
/// not count: neither preemption by the run's other threads nor time the
/// hypervisor steals.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

/// Worker CPU time of each analytic evaluation, collected by the executor
/// install_rdh_executor registers.
class CpuPoints {
 public:
  void add(double ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ms_.push_back(ms);
  }
  /// The evaluations since the previous call.
  std::vector<double> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(ms_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<double> ms_;
};

CpuPoints& rdh_cpu_points() {
  static CpuPoints points;
  return points;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- walk -------------------------------------------------------------------

/// Forwards the LpmTunable calls to a DesignSpaceExplorer, recording a span
/// around each, the configurations the walk measured, and the wall time of
/// each step (from one iteration's prefetch to the next) that waited on a
/// simulation; a step the memo cache served whole waited on none.
class TimedTunable final : public core::LpmTunable {
 public:
  TimedTunable(core::DesignSpaceExplorer& inner,
               const exp::ExperimentEngine& engine, SpanLog* spans)
      : inner_(inner), engine_(engine), spans_(spans) {}

  core::LpmObservation measure() override {
    const Span span(spans_, "core.measure");
    core::LpmObservation obs = inner_.measure();
    on_path.insert(inner_.current());
    return obs;
  }
  bool optimize_l1() override {
    const Span span(spans_, "core.optimize_l1");
    return inner_.optimize_l1();
  }
  bool optimize_l2() override {
    const Span span(spans_, "core.optimize_l2");
    return inner_.optimize_l2();
  }
  bool reduce_overprovision() override {
    const Span span(spans_, "core.reduce_overprovision");
    return inner_.reduce_overprovision();
  }
  void prefetch_candidates() override {
    mark_step();
    const Span span(spans_, "core.prefetch");
    inner_.prefetch_candidates();
  }
  /// Closes the last step once the walk has returned.
  void finish() { mark_step(); }

  std::vector<double> step_ms;
  std::set<core::ArchKnobs> on_path;

 private:
  void mark_step() {
    const std::int64_t t = now_ns();
    const std::uint64_t sims = engine_.simulations_executed();
    if (last_ns_ >= 0 && sims > last_sims_) {
      step_ms.push_back(1e-6 * static_cast<double>(t - last_ns_));
    }
    last_ns_ = t;
    last_sims_ = sims;
  }

  core::DesignSpaceExplorer& inner_;
  const exp::ExperimentEngine& engine_;
  SpanLog* spans_;
  std::int64_t last_ns_ = -1;
  std::uint64_t last_sims_ = 0;
};

Rep walk_rep(const BenchConfig& cfg, int rep_index, SpanLog* spans,
             const Extras& extras) {
  Rep rep;
  const std::int64_t t_setup = now_ns();
  Session session(cfg.threads);
  const sim::MachineConfig base = sim::MachineConfig::single_core_default();
  const std::vector<std::uint64_t> seeds = trace_seeds(
      kWalkProfiles.size() * kWalkTracesPerProfile, cfg.seed, kWalkSalt);
  std::vector<trace::WorkloadProfile> workloads;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SpecBenchmark b = kWalkProfiles[i / kWalkTracesPerProfile];
    const std::string trace_name = ".t" + std::to_string(i % kWalkTracesPerProfile);
    workloads.push_back(fresh_profile(b, kWalkLength, seeds[i], cfg.seed, rep_index));
    workloads.back().name += trace_name;
    keys.push_back("walk." + trace::spec_name(b) + trace_name);
  }
  const std::vector<std::size_t> order =
      permutation(workloads.size(), cfg.seed);
  rep.setup_s = seconds_since(t_setup);
  if (extras.setup_only) return rep;

  struct Walked {
    const trace::WorkloadProfile* workload;
    std::vector<core::ArchKnobs> visited;
  };
  std::vector<Walked> walked;
  const EngineCounters before = session.counters();
  const std::int64_t t0 = now_ns();
  for (const std::size_t w : order) {
    core::DesignSpaceExplorer ex(base, workloads[w], core::KnobLevels::standard(),
                                 core::ArchKnobs::config_a(),
                                 core::kCoarseGrainedDelta, &session.engine(),
                                 exp::kCycleBackend);
    TimedTunable tunable(ex, session.engine(), spans);
    core::LpmAlgorithmConfig acfg;
    acfg.delta_percent = core::kCoarseGrainedDelta;
    acfg.max_iterations = kWalkMaxIterations;
    acfg.trim_overprovision = true;
    const core::LpmOutcome outcome = core::LpmAlgorithm(acfg).run(tunable);
    tunable.finish();

    rep.answers[keys[w]] = ex.current().label() + " | steps=" +
                           std::to_string(outcome.steps.size());
    // A walk that ran into the iteration cap reached no decision.
    rep.checks[keys[w] + ".converged"] = outcome.converged;
    rep.steps += outcome.steps.size();
    rep.on_path_configs += tunable.on_path.size();
    rep.point_ms.insert(rep.point_ms.end(), tunable.step_ms.begin(),
                        tunable.step_ms.end());
    walked.push_back({&workloads[w], ex.visited()});
  }
  rep.wall_s = seconds_since(t0);
  rep.peak_rss_mb = peak_rss_mb();
  account(rep, session, before, "");
  rep.configs_simulated = rep.sims_executed;

  const auto job_for = [&](const Walked& w, const core::ArchKnobs& k) {
    return exp::SimJob::solo(k.apply(base), *w.workload, /*calibrate=*/true,
                             w.workload->name + " | " + k.label());
  };
  // Every configuration the walks simulated, already in the memo cache.
  std::vector<exp::SimJob> points;
  for (const Walked& w : walked) {
    for (const core::ArchKnobs& k : w.visited) points.push_back(job_for(w, k));
  }
  if (extras.accuracy) mr1_errors(rep, session.engine(), points);
  replay_points(rep, session.engine(), points, extras);
  return rep;
}

// --- nuca -------------------------------------------------------------------

/// Recorded trace files of one repetition; removed when it ends.
class RecordedTraces {
 public:
  RecordedTraces() = default;
  RecordedTraces(const RecordedTraces&) = delete;
  RecordedTraces& operator=(const RecordedTraces&) = delete;
  ~RecordedTraces() {
    for (const std::string& p : paths_) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
  void add(std::string path) { paths_.push_back(std::move(path)); }

 private:
  std::vector<std::string> paths_;
};

Rep nuca_rep(const BenchConfig& cfg, int rep_index, SpanLog* spans,
             const Extras& extras) {
  Rep rep;
  const std::int64_t t_setup = now_ns();
  Session session(cfg.threads);
  const sim::MachineConfig machine = sim::MachineConfig::nuca16();
  const std::vector<SpecBenchmark>& programs = trace::all_spec_benchmarks();
  RecordedTraces files;
  std::vector<trace::WorkloadProfile> workloads(programs.size());
  std::filesystem::create_directories(cfg.workdir);
  // One trace seed per program, and one for the Random scheduler.
  const std::vector<std::uint64_t> seeds =
      trace_seeds(programs.size() + 1, cfg.seed, kNucaSalt);
  for (const std::size_t i : permutation(programs.size(), cfg.seed)) {
    // Per-process unique paths: concurrent runs never share a file.
    const std::string path = cfg.workdir + "/nuca-" +
                             std::to_string(::getpid()) + "-r" +
                             std::to_string(rep_index) + "-" +
                             std::to_string(i) + ".lpm2";
    files.add(path);
    const trace::TraceSourcePtr source = trace::make_trace(
        trace::spec_profile(programs[i], kNucaLength, seeds[i]));
    const std::int64_t t_rec = now_ns();
    (void)trace::record_trace_v2(*source, path);
    rep.record_s += seconds_since(t_rec);
    workloads[i] = trace::trace_file_profile(path, trace::spec_name(programs[i]));
  }
  rep.setup_s = seconds_since(t_setup);
  if (extras.setup_only) return rep;

  const EngineCounters before = session.counters();
  const std::int64_t t0 = now_ns();
  const sched::Profiler profiler(machine, &session.engine());
  std::vector<sched::AppProfile> apps;
  {
    const Span span(spans, "sched.profile_many");
    apps = profiler.profile_many(workloads, kNucaL1Sizes);
  }

  std::vector<sched::ScheduleCandidate> candidates;
  const auto assign = [&](sched::Scheduler& s, const std::string& label) {
    const Span span(spans, "sched.assign");
    candidates.push_back({s.assign(apps, machine.l1_size_per_core), label});
  };
  sched::RandomScheduler random(seeds.back());
  for (int i = 0; i < kRandomSamples; ++i) assign(random, "Random");
  sched::RoundRobinScheduler rr;
  assign(rr, "RoundRobin");
  sched::NucaSaScheduler cg(core::kCoarseGrainedDelta);
  assign(cg, "NUCA-SA.cg");
  sched::NucaSaScheduler fg(core::kFineGrainedDelta);
  assign(fg, "NUCA-SA.fg");

  // The co-runs are submitted in seed order; Hsp does not depend on it.
  std::vector<sched::ScheduleCandidate> submitted;
  for (const std::size_t i : permutation(candidates.size(), cfg.seed)) {
    submitted.push_back(candidates[i]);
  }
  std::vector<sched::EvalResult> results;
  {
    const Span span(spans, "sched.evaluate_schedules");
    results = sched::evaluate_schedules(machine, apps, submitted,
                                        &session.engine());
  }
  rep.wall_s = seconds_since(t0);
  rep.peak_rss_mb = peak_rss_mb();
  account(rep, session, before, exp::kCycleBackend);

  std::map<std::string, double> hsp;
  std::map<std::string, int> samples;
  for (const sched::EvalResult& r : results) {
    hsp[r.scheduler] += r.hsp;
    ++samples[r.scheduler];
  }
  for (auto& [name, value] : hsp) {
    value /= samples[name];
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    rep.answers["nuca.hsp." + name] = buf;
  }
  // The part of Fig. 8's order that holds on every seed tried: both NUCA-SA
  // variants beat Round-Robin and Random, and fg is within 1% of cg or
  // better. fg > cg and RR >= Random do not hold on every seed (README.md).
  const double baseline = std::max(hsp["RoundRobin"], hsp["Random"]);
  rep.checks["nuca.order"] = hsp["NUCA-SA.cg"] > baseline &&
                             hsp["NUCA-SA.fg"] > baseline &&
                             hsp["NUCA-SA.fg"] >= 0.99 * hsp["NUCA-SA.cg"];

  // The profile jobs and co-run jobs exactly as sched builds them.
  std::vector<exp::SimJob> profile_jobs;
  sim::MachineConfig solo = machine;
  solo.num_cores = 1;
  solo.l1_size_per_core.clear();
  solo.l1.num_cores = 1;
  solo.l2.num_cores = 1;
  for (const trace::WorkloadProfile& wl : workloads) {
    for (std::size_t s = 0; s < kNucaL1Sizes.size(); ++s) {
      sim::MachineConfig m = solo;
      m.l1.size_bytes = kNucaL1Sizes[s];
      profile_jobs.push_back(exp::SimJob::solo(m, wl, /*calibrate=*/s == 0));
    }
  }
  if (extras.accuracy) mr1_errors(rep, session.engine(), profile_jobs);
  std::vector<exp::SimJob> points = profile_jobs;
  for (const sched::ScheduleCandidate& c : submitted) {
    exp::SimJob job;
    job.machine = machine;
    job.workloads.resize(apps.size());
    for (std::size_t app = 0; app < apps.size(); ++app) {
      trace::WorkloadProfile wl = apps[app].workload;
      wl.addr_base = (static_cast<std::uint64_t>(app) + 1) << 30;
      job.workloads[c.schedule[app]] = std::move(wl);
    }
    points.push_back(std::move(job));
  }
  replay_points(rep, session.engine(), points, extras);
  return rep;
}

// --- screen -----------------------------------------------------------------

sim::MachineConfig screen_base(const Geometry& g) {
  sim::MachineConfig base = sim::MachineConfig::single_core_default();
  base.l1.size_bytes = g.l1_bytes;
  base.l1.associativity = g.l1_ways;
  base.l2.size_bytes = g.l2_bytes;
  return base;
}

Rep screen_rep(const BenchConfig& cfg, int rep_index, SpanLog* spans,
               const Extras& extras) {
  Rep rep;
  const std::int64_t t_setup = now_ns();
  Session session(cfg.threads);
  model::register_analytic_executors();
  const std::vector<std::uint64_t> seeds =
      trace_seeds(kScreenProfiles.size(), cfg.seed, kScreenSalt);
  std::vector<trace::WorkloadProfile> workloads;
  for (std::size_t p = 0; p < kScreenProfiles.size(); ++p) {
    workloads.push_back(fresh_profile(kScreenProfiles[p], kScreenLength,
                                      seeds[p], cfg.seed, rep_index));
  }
  std::vector<core::ArchKnobs> candidates;
  for (const std::uint32_t ports : kScreenPorts) {
    for (const std::uint32_t mshr : kScreenMshrs) {
      for (const std::uint32_t il : kScreenInterleave) {
        core::ArchKnobs k = core::ArchKnobs::config_a();
        k.l1_ports = ports;
        k.mshr_entries = mshr;
        k.l2_interleave = il;
        candidates.push_back(k);
      }
    }
  }
  const std::size_t n_sweeps = workloads.size() * kScreenGeometries.size();
  const std::vector<std::size_t> order = permutation(n_sweeps, cfg.seed);
  rep.setup_s = seconds_since(t_setup);
  if (extras.setup_only) return rep;

  struct Swept {
    std::size_t sweep;
    sim::MachineConfig base;
    std::vector<core::ArchKnobs> confirmed;
  };
  std::vector<Swept> swept;
  const model::ProfileCache& profiles = model::ProfileCache::global();
  const std::uint64_t builds_before = profiles.profile_builds();
  const std::uint64_t calibs_before = profiles.calibration_runs();
  const EngineCounters before = session.counters();
  (void)rdh_cpu_points().take();
  const std::int64_t t0 = now_ns();
  for (const std::size_t s : order) {
    const std::size_t p = s / kScreenGeometries.size();
    const Geometry& g = kScreenGeometries[s % kScreenGeometries.size()];
    const sim::MachineConfig base = screen_base(g);
    core::SweepOptions opts;
    opts.screen_backend = model::kRdhBackend;
    opts.confirm_top_k = kScreenTopK;
    opts.engine = &session.engine();
    core::SweepResult result;
    {
      const Span span(spans, "core.screen_then_confirm_sweep");
      result = core::screen_then_confirm_sweep(base, workloads[p], candidates,
                                               opts);
    }
    const std::string key =
        "screen." + trace::spec_name(kScreenProfiles[p]) + ".l1=" +
        std::to_string(g.l1_bytes / 1024) + "K/" + std::to_string(g.l1_ways) +
        "w.l2=" + std::to_string(g.l2_bytes / 1024) + "K";
    rep.answers[key] = result.best.label();
    Swept sw{s, base, {}};
    for (const core::RankedConfig& r : result.confirmed) {
      sw.confirmed.push_back(r.knobs);
    }
    swept.push_back(std::move(sw));
  }
  rep.wall_s = seconds_since(t0);
  rep.peak_rss_mb = peak_rss_mb();
  rep.profile_builds = profiles.profile_builds() - builds_before;
  rep.calibration_runs = profiles.calibration_runs() - calibs_before;
  account(rep, session, before, "");
  // Worker CPU time, not wall time: four workers and the submitting thread
  // share four CPUs, and a sub-millisecond evaluation's wall time is mostly
  // a measure of how often it waited for one.
  rep.point_ms = rdh_cpu_points().take();

  std::vector<exp::SimJob> confirmed;
  for (const Swept& sw : swept) {
    const trace::WorkloadProfile& wl =
        workloads[sw.sweep / kScreenGeometries.size()];
    for (const core::ArchKnobs& k : sw.confirmed) {
      confirmed.push_back(exp::SimJob::solo(k.apply(sw.base), wl,
                                            /*calibrate=*/true));
    }
  }
  if (extras.accuracy) {
    // Three traces make the confirmed configurations' median error a
    // property of the seed; all sixteen profiles on every geometry make it
    // one of the model.
    const std::vector<SpecBenchmark>& all = trace::all_spec_benchmarks();
    const std::vector<std::uint64_t> accuracy_seeds =
        trace_seeds(all.size(), cfg.seed, kScreenSalt + 1);
    std::vector<exp::SimJob> jobs;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const trace::WorkloadProfile wl = fresh_profile(
          all[i], kAccuracyLength, accuracy_seeds[i], cfg.seed, rep_index);
      for (const Geometry& g : kScreenGeometries) {
        jobs.push_back(exp::SimJob::solo(
            core::ArchKnobs::config_a().apply(screen_base(g)), wl,
            /*calibrate=*/true));
      }
    }
    mr1_errors(rep, session.engine(), jobs);
  }
  replay_points(rep, session.engine(), confirmed, extras);
  return rep;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "walk" || name == "nuca" || name == "screen";
}

Rep run_rep(const BenchConfig& cfg, int rep, SpanLog* spans,
            const Extras& extras) {
  if (cfg.workload == "walk") return walk_rep(cfg, rep, spans, extras);
  if (cfg.workload == "nuca") return nuca_rep(cfg, rep, spans, extras);
  if (cfg.workload == "screen") return screen_rep(cfg, rep, spans, extras);
  throw util::ConfigError("unknown workload '" + cfg.workload + "'");
}

void install_rdh_executor(SpanLog* spans) {
  model::register_analytic_executors();
  exp::ExperimentEngine::register_backend_executor(
      model::kRdhBackend,
      [spans](const exp::SimJob& job, const sim::RunGuard* guard) {
        if (guard != nullptr && guard->cancel.load(std::memory_order_relaxed)) {
          throw util::TimeoutError("analytic evaluation cancelled (job '" +
                                   job.tag + "')");
        }
        const double cpu0 = thread_cpu_ms();
        exp::SimJobResult out;
        {
          const Span eval(spans, "model.evaluate_analytic");
          if (spans->enabled()) {
            model::ProfileCache& cache = model::ProfileCache::global();
            for (const trace::WorkloadProfile& wl : job.workloads) {
              {
                const Span span(spans, "model.reuse");
                (void)cache.reuse(wl);
              }
              {
                const Span span(spans, "model.calibration");
                (void)cache.calibration(job.machine, wl);
              }
            }
          }
          out = model::evaluate_analytic(job);
        }
        rdh_cpu_points().add(thread_cpu_ms() - cpu0);
        return out;
      });
}

}  // namespace lpmbench
