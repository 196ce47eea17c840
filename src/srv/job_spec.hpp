// JobSpec: the wire-side description of one lpmd job. Deliberately a
// constrained, flat vocabulary (spec-analogue workload by name, a base
// machine plus scalar overrides) rather than a full MachineConfig codec:
// every field maps 1:1 onto a flat JSON key, so the whole protocol stays
// inside util::FlatJson, and the admission layer can reason about a job
// (fidelity, degradability, expansion size) without touching the simulator.
//
// Three kinds:
//   simulate — one experiment point; expands to exactly one SimJob.
//   sweep    — one knob swept over an explicit value list; expands to one
//              SimJob per value (bounded by kMaxSweepPoints). Results are
//              streamed back one frame per point.
//   walk     — a screened LPM walk over the Case Study I design space
//              (handled by the server directly, not via expand()).
//
// Degradation: a job is *degrade-eligible* when it asks for cycle fidelity
// and its client allowed downgrades (degrade_ok, the default). Under
// saturation the server rewrites the backend to its configured analytic
// fidelity and tags the response, so clients always know what they got.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment_engine.hpp"
#include "sim/machine_config.hpp"
#include "srv/wire.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {

/// Most points one sweep job may expand to; larger lists are a config
/// error at admission (keeps one job's queue occupancy bounded).
inline constexpr std::size_t kMaxSweepPoints = 64;

struct JobSpec {
  std::string kind = "simulate";  ///< simulate | sweep | walk

  // --- workload (a SPEC CPU2006 analogue from trace::spec_like) ---
  std::string workload = "403.gcc";
  std::uint64_t length = 100'000;  ///< micro-ops per trace replay
  std::uint64_t seed = 1;
  /// Server-local path of a recorded LPM2 trace file. When set, the
  /// job replays that file and workload/length/seed are ignored; the
  /// engine-side cache key folds in the file's *content checksum*, not this
  /// path. Simulate/sweep only — walks screen across synthetic lengths.
  std::string trace_file;

  // --- machine: a named base plus scalar overrides (0 = keep base) ---
  std::string machine = "default";  ///< default | three_level | nuca16
  std::uint64_t l1_kb = 0;
  std::uint32_t l1_assoc = 0;
  std::uint64_t l2_kb = 0;
  std::uint32_t mshr = 0;   ///< L1 MSHR entries
  std::uint32_t cores = 0;  ///< replicates the workload on every core

  std::string backend = exp::kCycleBackend;  ///< cycle | rdh | fa
  bool calibrate = true;
  /// May the server answer at analytic fidelity under saturation?
  bool degrade_ok = true;
  /// Accept-to-completion budget; expires in the queue as a typed timeout
  /// (execution time is separately bounded by the engine watchdog). 0 = none.
  std::uint64_t deadline_ms = 0;

  // --- sweep only ---
  std::string sweep_knob;    ///< l1_kb | l2_kb | mshr
  std::string sweep_values;  ///< comma-separated list, e.g. "16,32,64"

  /// Shape checks (known kind/machine/backend names, sweep list bounds,
  /// length sane). Workload-name resolution happens in machine_config() /
  /// expand(), which throw util::ConfigError for unknown analogues.
  void validate() const;

  /// True when the server may rewrite this job to an analytic backend.
  [[nodiscard]] bool degrade_eligible() const;

  /// Serializes into flat `job_*`-prefixed keys on `out`.
  void encode(JsonWriter& out) const;
  /// Inverse of encode(); unknown keys are ignored, missing keys default.
  [[nodiscard]] static JobSpec decode(const util::FlatJson& json);

  /// The machine this spec describes (base + overrides), validated.
  [[nodiscard]] sim::MachineConfig machine_config() const;

  /// The engine jobs this spec expands to: one for simulate, one per sweep
  /// value for sweep. Throws util::ConfigError for walk (the server runs
  /// walks through the LPM algorithm, not the raw engine).
  [[nodiscard]] std::vector<exp::SimJob> expand(const std::string& tag) const;
};

}  // namespace lpm::srv
