#include "core/design_space.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/diagnosis.hpp"
#include "model/analytic.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace lpm::core {

sim::MachineConfig ArchKnobs::apply(sim::MachineConfig base) const {
  base.core.issue_width = issue_width;
  base.core.dispatch_width = issue_width;
  base.core.commit_width = issue_width;
  base.core.iw_size = std::min(iw_size, rob_size);
  base.core.rob_size = rob_size;
  // The LSQ scales with the window: an aggressive front end needs in-flight
  // memory capacity to exploit it.
  base.core.lsq_size = std::max<std::uint32_t>(8, rob_size / 2);
  base.l1.ports = l1_ports;
  base.l1.mshr_entries = mshr_entries;
  base.l2.banks = l2_interleave;
  base.l2.ports = std::max<std::uint32_t>(2, l1_ports);
  base.l2.mshr_entries = std::max<std::uint32_t>(8, mshr_entries * 2);
  return base;
}

double ArchKnobs::hardware_cost() const {
  // Arbitrary silicon-area units: ports and issue slots are expensive
  // (superlinear wiring), window/ROB entries and MSHRs are cheaper SRAM.
  return 8.0 * issue_width + 0.5 * iw_size + 0.5 * rob_size +
         16.0 * l1_ports + 2.0 * mshr_entries + 1.0 * l2_interleave;
}

std::string ArchKnobs::label() const {
  return "issue=" + std::to_string(issue_width) +
         " iw=" + std::to_string(iw_size) + " rob=" + std::to_string(rob_size) +
         " ports=" + std::to_string(l1_ports) +
         " mshr=" + std::to_string(mshr_entries) +
         " l2il=" + std::to_string(l2_interleave);
}

ArchKnobs ArchKnobs::config_a() { return ArchKnobs{4, 32, 32, 1, 4, 4}; }
ArchKnobs ArchKnobs::config_b() { return ArchKnobs{4, 64, 64, 1, 8, 8}; }
ArchKnobs ArchKnobs::config_c() { return ArchKnobs{6, 64, 64, 2, 16, 8}; }
ArchKnobs ArchKnobs::config_d() { return ArchKnobs{8, 128, 128, 4, 16, 8}; }
ArchKnobs ArchKnobs::config_e() { return ArchKnobs{8, 96, 96, 4, 16, 8}; }

KnobLevels KnobLevels::standard() {
  KnobLevels k;
  k.issue_width = {1, 2, 3, 4, 5, 6, 7, 8, 12, 16};
  k.iw_size = {8, 16, 32, 48, 64, 96, 128, 160, 192, 256};
  k.rob_size = {8, 16, 32, 48, 64, 96, 128, 160, 192, 256};
  k.l1_ports = {1, 2, 3, 4, 5, 6, 7, 8, 12, 16};
  k.mshr_entries = {1, 2, 4, 8, 12, 16, 24, 32, 48, 64};
  k.l2_interleave = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  return k;
}

std::uint64_t KnobLevels::space_size() const {
  return static_cast<std::uint64_t>(issue_width.size()) * iw_size.size() *
         rob_size.size() * l1_ports.size() * mshr_entries.size() *
         l2_interleave.size();
}

DesignSpaceExplorer::DesignSpaceExplorer(sim::MachineConfig base,
                                         trace::WorkloadProfile workload,
                                         KnobLevels levels, ArchKnobs start,
                                         double delta_percent,
                                         exp::ExperimentEngine* engine,
                                         std::string backend)
    : base_(std::move(base)),
      workload_(std::move(workload)),
      levels_(std::move(levels)),
      knobs_(start),
      delta_percent_(delta_percent),
      engine_(engine),
      backend_(std::move(backend)) {
  util::require(base_.num_cores == 1,
                "DesignSpaceExplorer: Case Study I explores a single program");
  workload_.validate();
  if (backend_ != exp::kCycleBackend) model::register_analytic_executors();
  util::require(exp::ExperimentEngine::has_backend_executor(backend_),
                "DesignSpaceExplorer: unknown backend '" + backend_ + "'");
}

exp::ExperimentEngine& DesignSpaceExplorer::engine() const {
  return engine_ != nullptr ? *engine_ : exp::ExperimentEngine::shared();
}

exp::SimJob DesignSpaceExplorer::make_job(const ArchKnobs& knobs) const {
  exp::SimJob job =
      exp::SimJob::solo(knobs.apply(base_), workload_, /*calibrate=*/true,
                        workload_.name + " | " + knobs.label());
  job.backend = backend_;
  return job;
}

const model::LayerEstimates& DesignSpaceExplorer::memoize(
    const ArchKnobs& knobs, const exp::SimJob& job, exp::SimResultPtr result) {
  util::require(result->run.completed,
                "DesignSpaceExplorer: run hit max_cycles");
  const auto [it, inserted] = memo_.emplace(
      knobs, model::LayerEstimates::from_result(job, std::move(result)));
  if (inserted) visited_.push_back(knobs);
  return it->second;
}

std::uint32_t DesignSpaceExplorer::step_up(const std::vector<std::uint32_t>& levels,
                                           std::uint32_t value) {
  for (const std::uint32_t v : levels) {
    if (v > value) return v;
  }
  return value;
}

std::uint32_t DesignSpaceExplorer::step_down(const std::vector<std::uint32_t>& levels,
                                             std::uint32_t value) {
  std::uint32_t best = value;
  for (const std::uint32_t v : levels) {
    if (v < value && (best == value || v > best)) best = v;
  }
  return best;
}

void DesignSpaceExplorer::apply_knobs(const ArchKnobs& next) {
  if (next == knobs_) return;
  // Each knob that changes is one reconfiguration operation (4 cycles).
  if (next.issue_width != knobs_.issue_width) ++reconfig_ops_;
  if (next.iw_size != knobs_.iw_size) ++reconfig_ops_;
  if (next.rob_size != knobs_.rob_size) ++reconfig_ops_;
  if (next.l1_ports != knobs_.l1_ports) ++reconfig_ops_;
  if (next.mshr_entries != knobs_.mshr_entries) ++reconfig_ops_;
  if (next.l2_interleave != knobs_.l2_interleave) ++reconfig_ops_;
  knobs_ = next;
}

const model::LayerEstimates& DesignSpaceExplorer::evaluate_full(
    const ArchKnobs& knobs) {
  if (const auto it = memo_.find(knobs); it != memo_.end()) return it->second;
  // On-path evaluations are fail-fast by design: the Fig. 3 walk cannot
  // classify a mismatch it could not measure, so a failure here (after the
  // engine's own retries) propagates as the job's typed error.
  const exp::SimJob job = make_job(knobs);
  return memoize(knobs, job, engine().run(job));
}

const AppMeasurement& DesignSpaceExplorer::evaluate(const ArchKnobs& knobs) {
  return evaluate_full(knobs).app(0);
}

const model::LayerEstimates& DesignSpaceExplorer::estimate(
    const ArchKnobs& knobs) {
  return evaluate_full(knobs);
}

void DesignSpaceExplorer::set_prefetch_hints(std::vector<ArchKnobs> hints) {
  hints_ = std::move(hints);
}

void DesignSpaceExplorer::evaluate_batch(const std::vector<ArchKnobs>& batch) {
  std::vector<ArchKnobs> todo;
  for (const ArchKnobs& k : batch) {
    if (memo_.contains(k)) continue;
    if (std::find(todo.begin(), todo.end(), k) != todo.end()) continue;
    todo.push_back(k);
  }
  if (todo.empty()) return;

  std::vector<exp::SimJob> jobs;
  jobs.reserve(todo.size());
  for (const ArchKnobs& k : todo) jobs.push_back(make_job(k));
  // Batched candidates are prefetch hints or independent trials: one failing
  // point must not abort the others, so collect-and-continue. A failed
  // candidate stays out of the memo — callers treat it as unavailable, and
  // an on-path evaluation of the same point would retry and then fail fast
  // in evaluate_full.
  const auto outcomes = engine().run_batch_outcomes(
      jobs, exp::FailurePolicy::kCollect);
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (!outcomes[i].ok()) {
      util::log_warn() << "design-space candidate '" << jobs[i].tag
                       << "' failed ("
                       << util::error_code_name(outcomes[i].error)
                       << "): " << outcomes[i].error_message;
      continue;
    }
    if (!outcomes[i].result->run.completed) {
      util::log_warn() << "design-space candidate '" << jobs[i].tag
                       << "' hit max_cycles; skipping";
      continue;
    }
    memoize(todo[i], jobs[i], outcomes[i].result);
  }
}

void DesignSpaceExplorer::prefetch_candidates() {
  if (hints_.empty()) return;
  // One-shot warm-up: the screening trajectory simulates as one concurrent
  // batch before the first on-path evaluation needs it.
  std::vector<ArchKnobs> hints;
  hints.swap(hints_);
  evaluate_batch(hints);
}

LpmObservation DesignSpaceExplorer::observe(const ArchKnobs& knobs) {
  const model::LayerEstimates& est = evaluate_full(knobs);
  const AppMeasurement& m = est.app(0);
  LpmObservation obs;
  obs.lpmr = est.lpmr;
  obs.t1 = threshold_t1(delta_percent_, m.overlap_ratio);
  obs.t2 = threshold_t2(delta_percent_, m);
  obs.stall_per_instr = m.measured_stall_per_instr;
  obs.cpi_exe = m.cpi_exe;
  obs.overlap_ratio = m.overlap_ratio;
  obs.config_label = knobs.label();
  obs.backend = est.backend;
  return obs;
}

LpmObservation DesignSpaceExplorer::measure() { return observe(knobs_); }

bool DesignSpaceExplorer::optimize_l1() {
  const model::LayerEstimates& ev = evaluate_full(knobs_);

  // Let the shared LPM diagnosis rank the bottlenecks, then apply the
  // first recommendation that still has head-room in the knob levels.
  HardwareContext hw;
  hw.mshr_entries = knobs_.mshr_entries;
  hw.l1_ports = knobs_.l1_ports;
  hw.rob_size = knobs_.rob_size;
  hw.issue_width = knobs_.issue_width;
  hw.l1_rejections = ev.hw.l1_rejections;
  hw.l1_mshr_wait_cycles = ev.hw.l1_mshr_wait_cycles;
  hw.l1_misses = ev.hw.l1_misses;
  const Diagnosis diag = diagnose(ev.app(0), hw, delta_percent_);

  for (const Finding& finding : diag.findings) {
    ArchKnobs next = knobs_;
    switch (finding.what) {
      case Bottleneck::kL1Ports:
        next.l1_ports = step_up(levels_.l1_ports, knobs_.l1_ports);
        break;
      case Bottleneck::kMshrParallelism:
        next.mshr_entries = step_up(levels_.mshr_entries, knobs_.mshr_entries);
        break;
      case Bottleneck::kWindow:
        next.rob_size = step_up(levels_.rob_size, knobs_.rob_size);
        next.iw_size = step_up(levels_.iw_size, knobs_.iw_size);
        break;
      case Bottleneck::kIssueBandwidth:
        next.issue_width = step_up(levels_.issue_width, knobs_.issue_width);
        break;
      case Bottleneck::kL2Layer:
      case Bottleneck::kMemoryLayer:
      case Bottleneck::kMatched:
        continue;  // not an L1-layer action (optimize_l2 handles the first)
    }
    if (next != knobs_) {
      apply_knobs(next);
      return true;
    }
  }
  // Recommended knobs are maxed: fall back to anything with head-room so
  // the Fig. 3 loop can still make progress.
  for (const auto& widen : {
           +[](ArchKnobs& k, const KnobLevels& l) {
             k.mshr_entries = step_up(l.mshr_entries, k.mshr_entries);
           },
           +[](ArchKnobs& k, const KnobLevels& l) {
             k.l1_ports = step_up(l.l1_ports, k.l1_ports);
           },
           +[](ArchKnobs& k, const KnobLevels& l) {
             k.rob_size = step_up(l.rob_size, k.rob_size);
             k.iw_size = step_up(l.iw_size, k.iw_size);
           },
           +[](ArchKnobs& k, const KnobLevels& l) {
             k.issue_width = step_up(l.issue_width, k.issue_width);
           },
       }) {
    ArchKnobs next = knobs_;
    widen(next, levels_);
    if (next != knobs_) {
      apply_knobs(next);
      return true;
    }
  }
  return false;
}

bool DesignSpaceExplorer::optimize_l2() {
  ArchKnobs next = knobs_;
  next.l2_interleave = step_up(levels_.l2_interleave, knobs_.l2_interleave);
  if (next.l2_interleave == knobs_.l2_interleave) return false;
  apply_knobs(next);
  return true;
}

bool DesignSpaceExplorer::reduce_overprovision() {
  // Try stepping each knob down, most-expensive saving first; accept the
  // first reduction that still meets the T1 threshold.
  struct Candidate {
    ArchKnobs knobs;
    double saving;
  };
  std::vector<Candidate> candidates;
  const double cost_now = knobs_.hardware_cost();

  const auto add = [&](ArchKnobs next) {
    if (next != knobs_) {
      candidates.push_back(Candidate{next, cost_now - next.hardware_cost()});
    }
  };
  {
    ArchKnobs n = knobs_;
    n.issue_width = step_down(levels_.issue_width, knobs_.issue_width);
    add(n);
  }
  {
    ArchKnobs n = knobs_;
    n.rob_size = step_down(levels_.rob_size, knobs_.rob_size);
    n.iw_size = step_down(levels_.iw_size, knobs_.iw_size);
    add(n);
  }
  {
    ArchKnobs n = knobs_;
    n.l1_ports = step_down(levels_.l1_ports, knobs_.l1_ports);
    add(n);
  }
  {
    ArchKnobs n = knobs_;
    n.mshr_entries = step_down(levels_.mshr_entries, knobs_.mshr_entries);
    add(n);
  }
  {
    ArchKnobs n = knobs_;
    n.l2_interleave = step_down(levels_.l2_interleave, knobs_.l2_interleave);
    add(n);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.saving > b.saving;
                   });

  // All trim candidates are independent: simulate them as one engine batch,
  // then pick the best-saving one that still meets T1. (Deterministic in
  // the thread count — the batch contents don't depend on it.)
  {
    std::vector<ArchKnobs> batch;
    batch.reserve(candidates.size());
    for (const Candidate& c : candidates) batch.push_back(c.knobs);
    evaluate_batch(batch);
  }

  for (const Candidate& c : candidates) {
    // A candidate whose batched simulation failed is simply not considered
    // for trimming (re-running it serially would re-fail or stall the walk
    // on a point we only wanted opportunistically).
    if (!memo_.contains(c.knobs)) continue;
    const LpmObservation trial = observe(c.knobs);
    if (trial.lpmr.lpmr1 <= trial.t1) {
      apply_knobs(c.knobs);
      return true;
    }
  }
  return false;
}

namespace {

/// Ranking shared by the screen and confirm stages: configs meeting the T1
/// target first (cheapest silicon first), then the rest by how close they
/// come (smallest LPMR1 excess first).
void rank(std::vector<RankedConfig>& rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RankedConfig& a, const RankedConfig& b) {
                     if (a.meets_t1 != b.meets_t1) return a.meets_t1;
                     if (a.meets_t1) return a.hardware_cost < b.hardware_cost;
                     return a.lpmr1 - a.t1 < b.lpmr1 - b.t1;
                   });
}

RankedConfig make_ranked(DesignSpaceExplorer& explorer, const ArchKnobs& k,
                         double delta_percent) {
  const model::LayerEstimates& est = explorer.estimate(k);
  const AppMeasurement& m = est.app(0);
  RankedConfig row;
  row.knobs = k;
  row.backend = est.backend;
  row.lpmr1 = est.lpmr.lpmr1;
  row.t1 = threshold_t1(delta_percent, m.overlap_ratio);
  row.meets_t1 = row.lpmr1 <= row.t1;
  row.stall_per_instr = m.measured_stall_per_instr;
  row.hardware_cost = k.hardware_cost();
  return row;
}

}  // namespace

SweepResult screen_then_confirm_sweep(const sim::MachineConfig& base,
                                      const trace::WorkloadProfile& workload,
                                      const std::vector<ArchKnobs>& candidates,
                                      const SweepOptions& opts) {
  util::require(!candidates.empty(),
                "screen_then_confirm_sweep: no candidates given");
  util::require(opts.confirm_top_k >= 1,
                "screen_then_confirm_sweep: confirm_top_k must be >= 1");
  obs::MetricsRegistry::global().counter("lpm.screened_sweeps").inc();

  SweepResult out;
  DesignSpaceExplorer screen(base, workload, KnobLevels::standard(),
                             candidates.front(), opts.delta_percent,
                             opts.engine, opts.screen_backend);
  screen.evaluate_batch(candidates);
  for (const ArchKnobs& k : candidates) {
    out.screened.push_back(make_ranked(screen, k, opts.delta_percent));
  }
  rank(out.screened);
  out.analytic_evals = screen.configs_evaluated();

  DesignSpaceExplorer confirm(base, workload, KnobLevels::standard(),
                              candidates.front(), opts.delta_percent,
                              opts.engine, exp::kCycleBackend);
  const std::size_t top_k =
      std::min(opts.confirm_top_k, out.screened.size());
  std::vector<ArchKnobs> frontier;
  frontier.reserve(top_k);
  for (std::size_t i = 0; i < top_k; ++i) {
    frontier.push_back(out.screened[i].knobs);
  }
  confirm.evaluate_batch(frontier);
  for (const ArchKnobs& k : frontier) {
    out.confirmed.push_back(make_ranked(confirm, k, opts.delta_percent));
  }
  rank(out.confirmed);
  out.cycle_evals = confirm.configs_evaluated();
  util::require(!out.confirmed.empty(),
                "screen_then_confirm_sweep: every frontier evaluation failed");
  out.best = out.confirmed.front().knobs;
  return out;
}

}  // namespace lpm::core
