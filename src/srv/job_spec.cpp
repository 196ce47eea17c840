#include "srv/job_spec.hpp"

#include <algorithm>
#include <cstdlib>

#include "model/backend.hpp"
#include "model/trace_spec.hpp"
#include "util/error.hpp"

namespace lpm::srv {

namespace {

bool known_kind(const std::string& kind) {
  return kind == "simulate" || kind == "sweep" || kind == "walk";
}

bool known_machine(const std::string& machine) {
  return machine == "default" || machine == "three_level" ||
         machine == "nuca16";
}

bool known_sweep_knob(const std::string& knob) {
  return knob == "l1_kb" || knob == "l2_kb" || knob == "mshr";
}

/// Parses "16,32,64" into values; throws util::ConfigError on junk.
std::vector<std::uint64_t> parse_values(const std::string& list) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(pos, comma - pos);
    if (item.empty()) {
      throw util::ConfigError("sweep_values: empty entry in '" + list + "'");
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || v == 0) {
      throw util::ConfigError("sweep_values: bad entry '" + item + "'");
    }
    out.push_back(static_cast<std::uint64_t>(v));
    pos = comma + 1;
  }
  if (out.empty()) throw util::ConfigError("sweep_values: empty list");
  return out;
}

/// Reads an unsigned number key, rejecting negatives and fractions (the
/// protocol carries counts and sizes only).
std::uint64_t get_u64(const util::FlatJson& json, const std::string& key,
                      std::uint64_t fallback) {
  const auto v = json.get_number(key);
  if (!v) return fallback;
  if (*v < 0 || *v != static_cast<double>(static_cast<std::uint64_t>(*v))) {
    throw util::ConfigError("frame key '" + key +
                            "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(*v);
}

}  // namespace

void JobSpec::validate() const {
  if (!known_kind(kind)) {
    throw util::ConfigError("job kind '" + kind +
                            "' (want simulate | sweep | walk)");
  }
  if (!known_machine(machine)) {
    throw util::ConfigError("job machine '" + machine +
                            "' (want default | three_level | nuca16)");
  }
  // Validate against the static vocabulary, not process-local executor
  // registration: lpmc/loadgen validate client-side without an engine, and
  // the server registers the analytic executors in its constructor.
  const auto& names = model::backend_names();
  if (std::find(names.begin(), names.end(), backend) == names.end()) {
    throw util::ConfigError("job backend '" + backend + "' (want cycle | rdh | fa)");
  }
  if (workload.empty()) throw util::ConfigError("job workload is empty");
  if (length == 0) throw util::ConfigError("job length must be positive");
  if (length > 10'000'000) {
    throw util::ConfigError("job length " + std::to_string(length) +
                            " exceeds the 10M micro-op server cap");
  }
  if (kind == "sweep") {
    if (!known_sweep_knob(sweep_knob)) {
      throw util::ConfigError("sweep_knob '" + sweep_knob +
                              "' (want l1_kb | l2_kb | mshr)");
    }
    const auto values = parse_values(sweep_values);
    if (values.size() > kMaxSweepPoints) {
      throw util::ConfigError(
          "sweep_values has " + std::to_string(values.size()) +
          " points; the server caps one job at " +
          std::to_string(kMaxSweepPoints));
    }
  } else if (!sweep_knob.empty() || !sweep_values.empty()) {
    throw util::ConfigError("sweep_knob/sweep_values are sweep-only keys");
  }
  if (kind == "walk" && backend != exp::kCycleBackend) {
    // The walk screens with an analytic backend internally; its verified
    // steps are cycle-fidelity by construction.
    throw util::ConfigError("walk jobs always verify at cycle fidelity");
  }
  if (!trace_file.empty() && kind == "walk") {
    // A walk re-simulates the workload at many lengths during screening;
    // a recorded file has exactly one. Shape-check only — the file itself
    // is probed server-side in expand() (clients validate without it).
    throw util::ConfigError("job_trace_file is simulate/sweep-only");
  }
}

bool JobSpec::degrade_eligible() const {
  return degrade_ok && backend == exp::kCycleBackend &&
         (kind == "simulate" || kind == "sweep");
}

void JobSpec::encode(JsonWriter& out) const {
  out.str("job_kind", kind)
      .str("job_workload", workload)
      .num_u64("job_length", length)
      .num_u64("job_seed", seed)
      .str("job_machine", machine)
      .str("job_backend", backend)
      .boolean("job_calibrate", calibrate)
      .boolean("job_degrade_ok", degrade_ok);
  // Zero-valued overrides mean "keep the base machine"; omitting them keeps
  // frames small and makes the defaulting rule visible on the wire.
  if (l1_kb != 0) out.num_u64("job_l1_kb", l1_kb);
  if (l1_assoc != 0) out.num_u64("job_l1_assoc", l1_assoc);
  if (l2_kb != 0) out.num_u64("job_l2_kb", l2_kb);
  if (mshr != 0) out.num_u64("job_mshr", mshr);
  if (cores != 0) out.num_u64("job_cores", cores);
  if (deadline_ms != 0) out.num_u64("job_deadline_ms", deadline_ms);
  if (!trace_file.empty()) out.str("job_trace_file", trace_file);
  if (kind == "sweep") {
    out.str("job_sweep_knob", sweep_knob).str("job_sweep_values", sweep_values);
  }
}

JobSpec JobSpec::decode(const util::FlatJson& json) {
  JobSpec spec;
  spec.kind = json.get_string("job_kind").value_or(spec.kind);
  spec.workload = json.get_string("job_workload").value_or(spec.workload);
  spec.length = get_u64(json, "job_length", spec.length);
  spec.seed = get_u64(json, "job_seed", spec.seed);
  spec.machine = json.get_string("job_machine").value_or(spec.machine);
  spec.backend = json.get_string("job_backend").value_or(spec.backend);
  spec.calibrate = json.get_bool("job_calibrate").value_or(spec.calibrate);
  spec.degrade_ok = json.get_bool("job_degrade_ok").value_or(spec.degrade_ok);
  spec.l1_kb = get_u64(json, "job_l1_kb", 0);
  spec.l1_assoc = static_cast<std::uint32_t>(get_u64(json, "job_l1_assoc", 0));
  spec.l2_kb = get_u64(json, "job_l2_kb", 0);
  spec.mshr = static_cast<std::uint32_t>(get_u64(json, "job_mshr", 0));
  spec.cores = static_cast<std::uint32_t>(get_u64(json, "job_cores", 0));
  spec.deadline_ms = get_u64(json, "job_deadline_ms", 0);
  spec.trace_file = json.get_string("job_trace_file").value_or("");
  spec.sweep_knob = json.get_string("job_sweep_knob").value_or("");
  spec.sweep_values = json.get_string("job_sweep_values").value_or("");
  return spec;
}

sim::MachineConfig JobSpec::machine_config() const {
  sim::MachineConfig m = sim::MachineConfig::single_core_default();
  if (machine == "three_level") m = sim::MachineConfig::three_level_default();
  if (machine == "nuca16") m = sim::MachineConfig::nuca16();
  if (cores != 0) m.num_cores = cores;
  if (l1_kb != 0) m.l1.size_bytes = l1_kb * 1024;
  if (l1_assoc != 0) m.l1.associativity = l1_assoc;
  if (mshr != 0) m.l1.mshr_entries = mshr;
  if (l2_kb != 0) m.l2.size_bytes = l2_kb * 1024;
  m.validate();
  return m;
}

std::vector<exp::SimJob> JobSpec::expand(const std::string& tag) const {
  validate();
  if (kind == "walk") {
    throw util::ConfigError("walk jobs do not expand to raw engine jobs");
  }
  const sim::MachineConfig cfg = machine_config();
  model::TraceSpec trace;
  if (!trace_file.empty()) {
    // Probed here, server-side: the header supplies count and content
    // checksum, and the same 10M cap that bounds synthetic lengths bounds
    // recorded replays (per-core queue occupancy is what the cap protects).
    trace = model::TraceSpec::trace_file(trace_file);
    const std::uint64_t count = trace.workloads.front().length;
    if (count > 10'000'000) {
      throw util::ConfigError("job trace_file holds " + std::to_string(count) +
                              " ops; the server caps one job at 10M");
    }
  } else {
    trace = model::TraceSpec::spec(workload, length, seed);
  }

  auto make_job = [&](sim::MachineConfig machine_cfg,
                      const std::string& job_tag) {
    exp::SimJob job;
    job.machine = std::move(machine_cfg);
    job.workloads = trace.expand(job.machine.num_cores);
    job.calibrate = calibrate;
    job.tag = job_tag;
    job.backend = backend;
    job.validate();
    return job;
  };

  if (kind == "simulate") return {make_job(cfg, tag)};

  std::vector<exp::SimJob> jobs;
  for (const std::uint64_t v : parse_values(sweep_values)) {
    sim::MachineConfig m = cfg;
    if (sweep_knob == "l1_kb") {
      m.l1.size_bytes = v * 1024;
    } else if (sweep_knob == "l2_kb") {
      m.l2.size_bytes = v * 1024;
    } else {
      m.l1.mshr_entries = static_cast<std::uint32_t>(v);
    }
    // make_job's SimJob::validate checks the machine.
    jobs.push_back(make_job(std::move(m), tag + "/" + sweep_knob + "=" +
                                              std::to_string(v)));
  }
  return jobs;
}

}  // namespace lpm::srv
