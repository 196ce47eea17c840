#include "core/lpm_algorithm.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace lpm::core {

const char* to_string(LpmAction a) {
  switch (a) {
    case LpmAction::kOptimizeBoth: return "optimize-L1+L2";
    case LpmAction::kOptimizeL1: return "optimize-L1";
    case LpmAction::kReduceOverprovision: return "reduce-overprovision";
    case LpmAction::kDone: return "done";
  }
  return "?";
}

LpmAlgorithm::LpmAlgorithm(LpmAlgorithmConfig cfg) : cfg_(cfg) {
  util::require(cfg_.delta_percent > 0.0, "LpmAlgorithm: delta must be positive");
  util::require(cfg_.margin_fraction >= 0.0 && cfg_.margin_fraction < 1.0,
                "LpmAlgorithm: margin_fraction must be in [0, 1)");
  util::require(cfg_.max_iterations >= 1, "LpmAlgorithm: need >= 1 iteration");
}

LpmAction LpmAlgorithm::classify(const LpmObservation& obs) const {
  // Fig. 3: Case I/II need optimization; Case III trims over-provision;
  // Case IV terminates.
  if (obs.lpmr.lpmr1 > obs.t1) {
    return obs.lpmr.lpmr2 > obs.t2 ? LpmAction::kOptimizeBoth
                                   : LpmAction::kOptimizeL1;
  }
  const double delta = cfg_.margin_fraction * obs.t1;
  if (cfg_.trim_overprovision && obs.lpmr.lpmr1 + delta < obs.t1) {
    return LpmAction::kReduceOverprovision;
  }
  return LpmAction::kDone;
}

namespace {

/// Walk-exit telemetry: one call per run(), on every return path.
void publish_outcome(const LpmOutcome& out) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("lpm.walks").inc();
  reg.counter("lpm.iterations").add(out.steps.size());
  // Resolved even when 0 so both names always appear in the snapshot.
  reg.counter("lpm.converged").add(out.converged ? 1 : 0);
  reg.counter("lpm.exhausted").add(out.exhausted ? 1 : 0);
}

/// Per-iteration telemetry: the LPMR trajectory lands both in the lpm.lpmr1/2
/// histograms (aggregate view) and — when tracing is on — as an "lpm.lpmr"
/// counter-event series, which Perfetto renders as the walk's trajectory
/// over time (see OBSERVABILITY.md for the worked example).
void publish_iteration(const LpmObservation& obs, LpmAction action) {
  auto& reg = obs::MetricsRegistry::global();
  const auto bounds = obs::MetricsRegistry::concurrency_bounds();
  reg.histogram("lpm.lpmr1", bounds).observe(obs.lpmr.lpmr1);
  reg.histogram("lpm.lpmr2", bounds).observe(obs.lpmr.lpmr2);
  if (auto* session = obs::TraceSession::global()) {
    session->counter_event("lpm.lpmr", session->now_us(),
                           {{"lpmr1", obs.lpmr.lpmr1},
                            {"lpmr2", obs.lpmr.lpmr2},
                            {"lpmr3", obs.lpmr.lpmr3}});
    session->instant_event("lpm.action", "lpm", session->now_us(),
                           {{"case", static_cast<double>(action)}});
  }
}

}  // namespace

LpmOutcome LpmAlgorithm::run(LpmTunable& system) const {
  OBS_SPAN("lpm.run", "lpm");
  LpmOutcome out;
  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    obs::ScopedSpan iter_span(obs::TraceSession::global(), "lpm.iteration",
                              "lpm");
    system.prefetch_candidates();
    LpmObservation obs = system.measure();
    const LpmAction action = classify(obs);
    iter_span.arg("lpmr1", obs.lpmr.lpmr1);
    iter_span.arg("lpmr2", obs.lpmr.lpmr2);
    publish_iteration(obs, action);

    LpmStep step;
    step.iteration = iter;
    step.action = action;
    step.observation = obs;

    util::log_info() << "LPM iter " << iter << " [" << obs.config_label
                     << "] LPMR1=" << obs.lpmr.lpmr1 << " T1=" << obs.t1
                     << " LPMR2=" << obs.lpmr.lpmr2 << " T2=" << obs.t2
                     << " -> " << to_string(action);

    switch (action) {
      case LpmAction::kDone:
        step.applied = true;
        out.steps.push_back(step);
        out.final_observation = obs;
        out.converged = true;
        publish_outcome(out);
        return out;
      case LpmAction::kOptimizeBoth: {
        const bool a = system.optimize_l1();
        const bool b = system.optimize_l2();
        step.applied = a || b;
        break;
      }
      case LpmAction::kOptimizeL1:
        step.applied = system.optimize_l1();
        break;
      case LpmAction::kReduceOverprovision:
        step.applied = system.reduce_overprovision();
        break;
    }
    out.steps.push_back(step);

    if (!step.applied) {
      // Out of actions. Reaching here from Case III means the configuration
      // is already minimal: that is convergence, not failure.
      out.final_observation = obs;
      out.converged = action == LpmAction::kReduceOverprovision;
      out.exhausted = !out.converged;
      publish_outcome(out);
      return out;
    }
  }
  out.final_observation = system.measure();
  out.exhausted = true;
  publish_outcome(out);
  return out;
}

}  // namespace lpm::core
