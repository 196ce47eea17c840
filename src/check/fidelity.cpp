#include "check/fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "model/analytic.hpp"
#include "trace/spec_like.hpp"
#include "util/error.hpp"
#include "util/flat_json.hpp"
#include "util/table.hpp"

namespace lpm::check {

double relative_error(double predicted, double measured, double floor) {
  return std::abs(predicted - measured) / std::max(std::abs(measured), floor);
}

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct Extract {
  double mr1 = 0.0;
  double camat1 = 0.0;
};

Extract extract(const sim::SystemResult& run) {
  Extract e;
  e.mr1 = run.mr1(0);
  if (!run.l1.empty()) e.camat1 = run.l1.front().camat();
  return e;
}

}  // namespace

FidelityReport run_fidelity_harness(const FidelityConfig& cfg) {
  util::require(!cfg.backends.empty(), "fidelity: no analytic backends given");
  util::require(!cfg.l1_sizes.empty(), "fidelity: no L1 sizes given");
  model::register_analytic_executors();

  exp::ExperimentEngine& engine =
      cfg.engine != nullptr ? *cfg.engine : exp::ExperimentEngine::shared();

  // One flat batch over profiles x sizes x (cycle + analytic backends):
  // the engine overlaps the cycle runs while the analytic evaluations
  // finish in microseconds.
  struct Key {
    std::size_t bench;
    std::size_t size;
    std::string backend;  // empty = cycle reference
  };
  std::vector<Key> keys;
  std::vector<exp::SimJob> jobs;
  const auto& benchmarks = trace::all_spec_benchmarks();
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const trace::WorkloadProfile wl =
        trace::spec_profile(benchmarks[b], cfg.trace_length, cfg.seed);
    for (std::size_t s = 0; s < cfg.l1_sizes.size(); ++s) {
      sim::MachineConfig machine = sim::MachineConfig::single_core_default();
      machine.l1.size_bytes = cfg.l1_sizes[s];
      const std::string tag =
          trace::spec_name(benchmarks[b]) + " | l1=" +
          std::to_string(cfg.l1_sizes[s] / 1024) + "KiB";
      exp::SimJob cycle =
          exp::SimJob::solo(machine, wl, /*calibrate=*/false, tag);
      keys.push_back({b, s, ""});
      jobs.push_back(cycle);
      for (const std::string& backend : cfg.backends) {
        exp::SimJob analytic = cycle;
        analytic.backend = backend;
        analytic.tag = tag + " | " + backend;
        keys.push_back({b, s, backend});
        jobs.push_back(std::move(analytic));
      }
    }
  }

  // Fail fast: a missing cycle reference (or a broken analytic executor)
  // invalidates the whole comparison.
  const std::vector<exp::SimResultPtr> results = engine.run_batch(jobs);

  std::map<std::pair<std::size_t, std::size_t>, Extract> cycle_ref;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].backend.empty()) {
      util::require(results[i]->run.completed, "fidelity: cycle run '" +
                                                   jobs[i].tag +
                                                   "' hit max_cycles");
      cycle_ref[{keys[i].bench, keys[i].size}] = extract(results[i]->run);
    }
  }

  FidelityReport report;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].backend.empty()) continue;
    const Extract cycle = cycle_ref.at({keys[i].bench, keys[i].size});
    const Extract analytic = extract(results[i]->run);
    FidelityPoint p;
    p.benchmark = trace::spec_name(benchmarks[keys[i].bench]);
    p.backend = keys[i].backend;
    p.l1_size_bytes = cfg.l1_sizes[keys[i].size];
    p.mr1_cycle = cycle.mr1;
    p.mr1_analytic = analytic.mr1;
    p.mr1_rel_error = relative_error(analytic.mr1, cycle.mr1, kMrErrorFloor);
    p.camat1_cycle = cycle.camat1;
    p.camat1_analytic = analytic.camat1;
    p.camat1_rel_error =
        relative_error(analytic.camat1, cycle.camat1, kCamatErrorFloor);
    report.points.push_back(std::move(p));
  }

  // Per (profile, backend) aggregation, in point order.
  std::vector<double> all_mr, all_camat;
  for (const std::string& backend : cfg.backends) {
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      ProfileSummary s;
      s.benchmark = trace::spec_name(benchmarks[b]);
      s.backend = backend;
      std::size_t n = 0;
      for (const FidelityPoint& p : report.points) {
        if (p.benchmark != s.benchmark || p.backend != backend) continue;
        ++n;
        s.mean_mr1_rel_error += p.mr1_rel_error;
        s.mean_camat1_rel_error += p.camat1_rel_error;
        s.max_mr1_rel_error = std::max(s.max_mr1_rel_error, p.mr1_rel_error);
        s.max_camat1_rel_error =
            std::max(s.max_camat1_rel_error, p.camat1_rel_error);
      }
      if (n > 0) {
        s.mean_mr1_rel_error /= static_cast<double>(n);
        s.mean_camat1_rel_error /= static_cast<double>(n);
      }
      report.profiles.push_back(std::move(s));
    }
  }
  for (const FidelityPoint& p : report.points) {
    all_mr.push_back(p.mr1_rel_error);
    all_camat.push_back(p.camat1_rel_error);
    report.worst_mr1_rel_error =
        std::max(report.worst_mr1_rel_error, p.mr1_rel_error);
    report.worst_camat1_rel_error =
        std::max(report.worst_camat1_rel_error, p.camat1_rel_error);
  }
  report.p50_mr1_rel_error = percentile(all_mr, 0.50);
  report.p90_mr1_rel_error = percentile(all_mr, 0.90);
  report.p50_camat1_rel_error = percentile(all_camat, 0.50);
  report.p90_camat1_rel_error = percentile(all_camat, 0.90);
  return report;
}

std::string FidelityReport::to_json() const {
  std::vector<util::JsonWriter> point_objs;
  point_objs.reserve(points.size());
  for (const FidelityPoint& p : points) {
    point_objs.push_back(util::JsonWriter()
                             .str("benchmark", p.benchmark)
                             .str("backend", p.backend)
                             .num_u64("l1_size_bytes", p.l1_size_bytes)
                             .fixed("mr1_cycle", p.mr1_cycle, 6)
                             .fixed("mr1_analytic", p.mr1_analytic, 6)
                             .fixed("mr1_rel_error", p.mr1_rel_error, 6)
                             .fixed("camat1_cycle", p.camat1_cycle, 6)
                             .fixed("camat1_analytic", p.camat1_analytic, 6)
                             .fixed("camat1_rel_error", p.camat1_rel_error, 6));
  }
  return util::JsonWriter()
             .fixed("worst_mr1_rel_error", worst_mr1_rel_error, 6)
             .fixed("worst_camat1_rel_error", worst_camat1_rel_error, 6)
             .fixed("p50_mr1_rel_error", p50_mr1_rel_error, 6)
             .fixed("p90_mr1_rel_error", p90_mr1_rel_error, 6)
             .fixed("p50_camat1_rel_error", p50_camat1_rel_error, 6)
             .fixed("p90_camat1_rel_error", p90_camat1_rel_error, 6)
             .array("points", point_objs)
             .finish() +
         "\n";
}

std::string FidelityReport::table() const {
  util::AsciiTable t({"profile", "backend", "MR1 err (mean)", "MR1 err (max)",
                      "C-AMAT1 err (mean)", "C-AMAT1 err (max)"});
  for (const ProfileSummary& s : profiles) {
    t.add_row({s.benchmark, s.backend, util::fmt(s.mean_mr1_rel_error, 3),
               util::fmt(s.max_mr1_rel_error, 3),
               util::fmt(s.mean_camat1_rel_error, 3),
               util::fmt(s.max_camat1_rel_error, 3)});
  }
  return t.to_string();
}

}  // namespace lpm::check
