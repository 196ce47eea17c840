#include "sched/evaluate.hpp"

#include "sched/hsp.hpp"
#include "util/error.hpp"

namespace lpm::sched {

namespace {

/// Builds the engine job for one co-run: traces[core] = the workload of the
/// app placed on that core. Each app gets a disjoint slice of the physical
/// address space (its own pages).
exp::SimJob make_corun_job(const sim::MachineConfig& machine,
                           const std::vector<AppProfile>& apps,
                           const ScheduleCandidate& candidate) {
  const Schedule& schedule = candidate.schedule;
  util::require(apps.size() == schedule.size(), "evaluate_schedule: size mismatch");
  util::require(machine.num_cores == apps.size(),
                "evaluate_schedule: machine must have one core per app");
  // The schedule must be a permutation.
  std::vector<bool> used(apps.size(), false);
  for (const std::size_t c : schedule) {
    util::require(c < apps.size(), "evaluate_schedule: core index out of range");
    util::require(!used[c], "evaluate_schedule: core assigned twice");
    used[c] = true;
  }

  exp::SimJob job;
  job.machine = machine;
  job.workloads.resize(apps.size());
  for (std::size_t app = 0; app < apps.size(); ++app) {
    trace::WorkloadProfile wl = apps[app].workload;
    wl.addr_base = (static_cast<std::uint64_t>(app) + 1) << 30;
    job.workloads[schedule[app]] = std::move(wl);
  }
  job.tag = candidate.scheduler;
  return job;
}

EvalResult to_eval_result(const sim::MachineConfig& machine,
                          const std::vector<AppProfile>& apps,
                          const ScheduleCandidate& candidate,
                          const sim::SystemResult& run) {
  util::require(run.completed, "evaluate_schedule: co-run hit max_cycles");
  EvalResult out;
  out.scheduler = candidate.scheduler;
  out.schedule = candidate.schedule;
  out.co_run_cycles = run.cycles;
  for (std::size_t app = 0; app < apps.size(); ++app) {
    const std::size_t c = candidate.schedule[app];
    const std::uint64_t l1_size = machine.l1_size_per_core.empty()
                                      ? machine.l1.size_bytes
                                      : machine.l1_size_per_core[c];
    out.ipc_alone.push_back(apps[app].at_size(l1_size).ipc);
    out.ipc_shared.push_back(run.cores[c].ipc());
  }
  out.hsp = harmonic_weighted_speedup(out.ipc_alone, out.ipc_shared);
  out.ws = weighted_speedup(out.ipc_alone, out.ipc_shared);
  out.min_ws = min_weighted_speedup(out.ipc_alone, out.ipc_shared);
  return out;
}

}  // namespace

std::vector<EvalResult> evaluate_schedules(
    const sim::MachineConfig& machine, const std::vector<AppProfile>& apps,
    const std::vector<ScheduleCandidate>& candidates,
    exp::ExperimentEngine* engine) {
  exp::ExperimentEngine& eng =
      engine != nullptr ? *engine : exp::ExperimentEngine::shared();

  std::vector<exp::SimJob> jobs;
  jobs.reserve(candidates.size());
  for (const ScheduleCandidate& c : candidates) {
    jobs.push_back(make_corun_job(machine, apps, c));
  }
  // Explicitly fail-fast: the Fig. 8 ranking compares every candidate, so
  // a missing co-run would silently bias the winner. The first failed
  // candidate's typed error is rethrown tagged with its scheduler name.
  const auto outcomes = eng.run_batch_outcomes(
      jobs, exp::FailurePolicy::kFailFast);

  std::vector<EvalResult> out;
  out.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!outcomes[i].ok()) {
      util::throw_error(
          outcomes[i].error,
          "evaluate_schedules: candidate '" + candidates[i].scheduler +
              "' (#" + std::to_string(i) + ") failed: " +
              outcomes[i].error_message);
    }
    out.push_back(
        to_eval_result(machine, apps, candidates[i], outcomes[i].result->run));
  }
  return out;
}

EvalResult evaluate_schedule(const sim::MachineConfig& machine,
                             const std::vector<AppProfile>& apps,
                             const Schedule& schedule, std::string scheduler_name,
                             exp::ExperimentEngine* engine) {
  return evaluate_schedules(machine, apps,
                            {{schedule, std::move(scheduler_name)}}, engine)
      .front();
}

}  // namespace lpm::sched
