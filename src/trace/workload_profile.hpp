// Parameter block describing a synthetic workload's locality and concurrency
// behaviour. This is our substitute for SPEC CPU2006 traces (see DESIGN.md):
// the paper uses SPEC only as a source of diverse working-set sizes, reuse
// behaviour, stride patterns, dependence structure (MLP) and burstiness, and
// those are exactly the knobs exposed here.
#pragma once

#include <cstdint>
#include <string>

namespace lpm::trace {

struct WorkloadProfile {
  std::string name = "unnamed";

  // --- instruction mix ---
  double fmem = 0.3;            ///< fraction of memory micro-ops
  double store_fraction = 0.3;  ///< stores among memory ops
  std::uint8_t alu_latency = 1; ///< execution latency of ALU ops
  double alu_dep_fraction = 0.5;///< ALU ops depending on the previous op (ILP limiter)

  // --- locality ---
  std::uint64_t working_set_bytes = 1 << 20;  ///< footprint of the address pool
  double zipf_skew = 0.6;       ///< temporal locality: block popularity skew (0 = uniform)
  double seq_fraction = 0.5;    ///< spatial locality: accesses continuing a stream
  std::uint32_t num_streams = 4;///< concurrent sequential streams
  std::uint64_t stride_bytes = 8; ///< stream advance per access

  // --- concurrency structure ---
  double pointer_chase_fraction = 0.0;  ///< loads depending on the previous load (MLP killer)
  double load_use_fraction = 0.5;       ///< ALU ops that consume the most recent load

  // --- phase / burst behaviour (Sherwood-style periodic phases) ---
  std::uint64_t phase_length = 0;  ///< micro-ops per phase; 0 disables phases
  double burst_duty = 0.0;         ///< fraction of phases that are memory bursts
  double burst_fmem = 0.8;         ///< fmem during a burst phase
  double burst_seq_fraction = 0.1; ///< seq_fraction during a burst phase

  std::uint64_t length = 100000;   ///< micro-ops per trace replay
  std::uint64_t seed = 1;          ///< RNG seed (combined with core id by callers)
  /// Base physical address of this program's footprint. Co-scheduled
  /// programs must use disjoint bases (distinct physical pages) or they
  /// would constructively share the LLC.
  std::uint64_t addr_base = 0;

  // --- recorded-trace replay (LPM2 files) ---
  /// When non-empty, the workload replays this recorded trace file instead
  /// of generating ops synthetically; the synthetic knobs above are ignored
  /// and `length` holds the record count. Build via trace_file_profile()
  /// (lpm2.hpp), which probes the file and fills in count + checksum.
  std::string trace_path;
  /// Content checksum of the recorded stream (Checksum64 over record
  /// bytes; never 0 for a real file). This — not the path — is what
  /// fingerprinting folds in, so the memo cache and shard routing key on
  /// what the trace *is*, not where it happens to live.
  std::uint64_t trace_checksum = 0;

  /// True when the workload replays a recorded trace file.
  [[nodiscard]] bool file_backed() const { return !trace_path.empty(); }

  /// Throws util::LpmError when a field is out of range.
  void validate() const;
};

}  // namespace lpm::trace
