// Catalog of 16 synthetic workload profiles named after the SPEC CPU2006
// benchmarks whose memory behaviour they imitate (see DESIGN.md §6). These
// are analogues, not the SPEC binaries: each profile encodes the published
// qualitative characterization (working-set size, reuse, streaming vs
// pointer-chasing, memory intensity) that the paper's case studies rely on.
#pragma once

#include <string>
#include <vector>

#include "trace/synthetic.hpp"
#include "trace/workload_profile.hpp"

namespace lpm::trace {

enum class SpecBenchmark {
  kPerlbench,   // 400: branchy integer, medium footprint, good reuse
  kBzip2,       // 401: tiny hot working set; insensitive to L1 size
  kGcc,         // 403: large irregular footprint; every L1 step helps
  kBwaves,      // 410: many parallel FP streams; the Table-I workload
  kGamess,      // 416: strong reuse; larger L1 cuts L2 traffic markedly
  kMcf,         // 429: pointer chasing over a huge graph; low MLP
  kMilc,        // 433: huge streaming footprint; L1-size insensitive
  kZeusmp,      // 434: stencil FP, several streams
  kGromacs,     // 435: compute-bound, small footprint
  kLeslie3d,    // 437: streaming FP, moderate reuse
  kNamd,        // 444: compute-bound, very cache-friendly
  kGobmk,       // 445: integer, irregular, medium footprint
  kSoplex,      // 450: sparse algebra; scattered accesses, memory-hungry
  kHmmer,       // 456: small hot tables, extremely cache-friendly
  kSjeng,       // 458: integer search, medium footprint
  kLibquantum,  // 462: single long stream, very memory-intense
};

/// All sixteen benchmarks in catalog order (the Case-Study-II mix).
[[nodiscard]] const std::vector<SpecBenchmark>& all_spec_benchmarks();

/// Short name, e.g. "401.bzip2".
[[nodiscard]] std::string spec_name(SpecBenchmark b);

/// The profile for one benchmark. `length` micro-ops, deterministic from
/// `seed` (callers typically mix in a core id).
[[nodiscard]] WorkloadProfile spec_profile(SpecBenchmark b,
                                           std::uint64_t length = 100000,
                                           std::uint64_t seed = 1);

/// A phased workload with memory bursts, used by the interval-sensitivity
/// experiment (§V: 10/20/40-cycle intervals vs burst detection).
[[nodiscard]] WorkloadProfile burst_profile(std::uint64_t phase_length,
                                            double burst_duty,
                                            std::uint64_t length = 200000,
                                            std::uint64_t seed = 7);

/// Convenience: builds the trace for a profile.
[[nodiscard]] TraceSourcePtr make_trace(const WorkloadProfile& profile);

/// make_trace for a run whose one core is the stream's only consumer: a
/// synthetic stream is generated on a ReadAhead helper thread, overlapping
/// the simulation; a file-backed profile is read inline.
[[nodiscard]] TraceSourcePtr make_read_ahead_trace(
    const WorkloadProfile& profile);

}  // namespace lpm::trace
