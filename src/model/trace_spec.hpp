// TraceSpec: what to run on a machine. Lives in the model layer (not the
// facade) so every ModelBackend — cycle-accurate or analytic — shares one
// description of "the workload side of an experiment point"; src/lpm.hpp
// re-exports it under the lpm:: name consumers already use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload_profile.hpp"

namespace lpm::model {

/// What to run on the machine: one workload per core (a single entry is
/// replicated across all cores), plus whether to also run the perfect-cache
/// CPIexe calibration every LPM computation needs.
struct TraceSpec {
  std::vector<trace::WorkloadProfile> workloads;
  /// Run sim::measure_cpi_exe per workload so the report carries
  /// AppMeasurements and LPMRs; disable for raw-throughput runs.
  bool calibrate = true;
  /// Free-form label carried into engine sinks (not part of the cache key).
  std::string tag;

  /// A synthetic SPEC CPU2006 analogue by name ("403.gcc", "429.mcf", ...).
  /// Throws util::ConfigError for an unknown name.
  [[nodiscard]] static TraceSpec spec(const std::string& name,
                                      std::uint64_t length = 100'000,
                                      std::uint64_t seed = 1);
  /// An explicit workload profile.
  [[nodiscard]] static TraceSpec profile(trace::WorkloadProfile workload);
  /// A recorded LPM2 trace file: probes the header and builds a
  /// file-backed profile whose identity is the stream's content checksum,
  /// not the path. Throws util::IoError on a missing, corrupt or v1 file. Replay is replicated across cores like any single-entry spec.
  [[nodiscard]] static TraceSpec trace_file(const std::string& path,
                                            std::string name = "");
  /// One profile per core.
  [[nodiscard]] static TraceSpec profiles(std::vector<trace::WorkloadProfile> w);

  /// The per-core workload list for a machine with `num_cores` cores
  /// (replicates a single entry; otherwise sizes must match).
  [[nodiscard]] std::vector<trace::WorkloadProfile> expand(
      std::uint32_t num_cores) const;
};

}  // namespace lpm::model
