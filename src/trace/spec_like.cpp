#include "trace/spec_like.hpp"

#include "trace/lpm2.hpp"
#include "trace/read_ahead.hpp"
#include "util/error.hpp"

namespace lpm::trace {

const std::vector<SpecBenchmark>& all_spec_benchmarks() {
  static const std::vector<SpecBenchmark> kAll = {
      SpecBenchmark::kPerlbench, SpecBenchmark::kBzip2,
      SpecBenchmark::kGcc,       SpecBenchmark::kBwaves,
      SpecBenchmark::kGamess,    SpecBenchmark::kMcf,
      SpecBenchmark::kMilc,      SpecBenchmark::kZeusmp,
      SpecBenchmark::kGromacs,   SpecBenchmark::kLeslie3d,
      SpecBenchmark::kNamd,      SpecBenchmark::kGobmk,
      SpecBenchmark::kSoplex,    SpecBenchmark::kHmmer,
      SpecBenchmark::kSjeng,     SpecBenchmark::kLibquantum,
  };
  return kAll;
}

std::string spec_name(SpecBenchmark b) {
  switch (b) {
    case SpecBenchmark::kPerlbench: return "400.perlbench";
    case SpecBenchmark::kBzip2: return "401.bzip2";
    case SpecBenchmark::kGcc: return "403.gcc";
    case SpecBenchmark::kBwaves: return "410.bwaves";
    case SpecBenchmark::kGamess: return "416.gamess";
    case SpecBenchmark::kMcf: return "429.mcf";
    case SpecBenchmark::kMilc: return "433.milc";
    case SpecBenchmark::kZeusmp: return "434.zeusmp";
    case SpecBenchmark::kGromacs: return "435.gromacs";
    case SpecBenchmark::kLeslie3d: return "437.leslie3d";
    case SpecBenchmark::kNamd: return "444.namd";
    case SpecBenchmark::kGobmk: return "445.gobmk";
    case SpecBenchmark::kSoplex: return "450.soplex";
    case SpecBenchmark::kHmmer: return "456.hmmer";
    case SpecBenchmark::kSjeng: return "458.sjeng";
    case SpecBenchmark::kLibquantum: return "462.libquantum";
  }
  throw util::LpmError("spec_name: unknown benchmark");
}

WorkloadProfile spec_profile(SpecBenchmark b, std::uint64_t length,
                             std::uint64_t seed) {
  WorkloadProfile p;
  p.name = spec_name(b);
  p.length = length;
  p.seed = seed;

  constexpr std::uint64_t KiB = 1024;
  constexpr std::uint64_t MiB = 1024 * 1024;

  switch (b) {
    case SpecBenchmark::kPerlbench:
      // Branchy integer code with a warm medium-size footprint.
      p.fmem = 0.34; p.working_set_bytes = 32 * KiB; p.zipf_skew = 0.9;
      p.seq_fraction = 0.30; p.num_streams = 2; p.stride_bytes = 16;
      p.alu_dep_fraction = 0.6; p.load_use_fraction = 0.5;
      break;
    case SpecBenchmark::kBzip2:
      // Tiny hot working set: already served by a 4 KB L1.
      p.fmem = 0.36; p.working_set_bytes = 3 * KiB; p.zipf_skew = 1.1;
      p.seq_fraction = 0.55; p.num_streams = 2; p.stride_bytes = 8;
      break;
    case SpecBenchmark::kGcc:
      // Large irregular footprint: every L1 size step up to 64 KB helps.
      p.fmem = 0.40; p.working_set_bytes = 60 * KiB; p.zipf_skew = 0.35;
      p.seq_fraction = 0.25; p.num_streams = 3; p.stride_bytes = 24;
      p.alu_dep_fraction = 0.55;
      break;
    case SpecBenchmark::kBwaves:
      // Many independent FP streams walking whole cache blocks (row-major
      // leaps through multi-dimensional arrays): almost every stream access
      // is an L1 miss, but the footprint lives in the L2, so MSHRs, ports
      // and window depth convert directly into overlap. Table I uses this
      // one because added hardware parallelism pays off layer by layer.
      p.fmem = 0.46; p.working_set_bytes = 256 * KiB; p.zipf_skew = 0.9;
      p.seq_fraction = 0.97; p.num_streams = 4; p.stride_bytes = 8;
      p.alu_latency = 2; p.alu_dep_fraction = 0.5; p.load_use_fraction = 0.25;
      break;
    case SpecBenchmark::kGamess:
      // Strong reuse; a bigger private L1 visibly cuts L2 bandwidth demand.
      p.fmem = 0.38; p.working_set_bytes = 48 * KiB; p.zipf_skew = 0.55;
      p.seq_fraction = 0.45; p.num_streams = 3; p.stride_bytes = 8;
      break;
    case SpecBenchmark::kMcf:
      // Pointer chasing across a big graph: dependent misses, low MLP; its
      // hot node set is captured at the first L1 size step.
      p.fmem = 0.42; p.working_set_bytes = 4 * MiB; p.zipf_skew = 0.95;
      p.seq_fraction = 0.05; p.num_streams = 1; p.stride_bytes = 64;
      p.pointer_chase_fraction = 0.7; p.load_use_fraction = 0.7;
      break;
    case SpecBenchmark::kMilc:
      // Huge streaming footprint with little reuse: L1 size insensitive.
      p.fmem = 0.44; p.working_set_bytes = 16 * MiB; p.zipf_skew = 0.05;
      p.seq_fraction = 0.80; p.num_streams = 4; p.stride_bytes = 16;
      p.alu_dep_fraction = 0.35;
      break;
    case SpecBenchmark::kZeusmp:
      // Stencil FP: several regular streams plus neighborhood reuse.
      p.fmem = 0.40; p.working_set_bytes = 2 * MiB; p.zipf_skew = 0.4;
      p.seq_fraction = 0.70; p.num_streams = 6; p.stride_bytes = 8;
      p.alu_dep_fraction = 0.3;
      break;
    case SpecBenchmark::kGromacs:
      // Compute-bound MD inner loops over a small particle set.
      p.fmem = 0.24; p.working_set_bytes = 24 * KiB; p.zipf_skew = 0.7;
      p.seq_fraction = 0.5; p.num_streams = 2; p.stride_bytes = 8;
      p.alu_latency = 3; p.alu_dep_fraction = 0.45;
      break;
    case SpecBenchmark::kLeslie3d:
      // Streaming FP with moderate reuse.
      p.fmem = 0.42; p.working_set_bytes = 4 * MiB; p.zipf_skew = 0.3;
      p.seq_fraction = 0.75; p.num_streams = 5; p.stride_bytes = 8;
      p.alu_dep_fraction = 0.3;
      break;
    case SpecBenchmark::kNamd:
      // Very cache-friendly compute: tiny hot set, long ALU chains.
      p.fmem = 0.22; p.working_set_bytes = 16 * KiB; p.zipf_skew = 0.9;
      p.seq_fraction = 0.55; p.num_streams = 2; p.stride_bytes = 8;
      p.alu_latency = 2; p.alu_dep_fraction = 0.5;
      break;
    case SpecBenchmark::kGobmk:
      // Irregular integer with a board-sized footprint.
      p.fmem = 0.32; p.working_set_bytes = 20 * KiB; p.zipf_skew = 0.6;
      p.seq_fraction = 0.2; p.num_streams = 2; p.stride_bytes = 32;
      p.alu_dep_fraction = 0.65;
      break;
    case SpecBenchmark::kSoplex:
      // Sparse linear algebra: scattered accesses over a large matrix.
      p.fmem = 0.44; p.working_set_bytes = 2 * MiB; p.zipf_skew = 0.45;
      p.seq_fraction = 0.35; p.num_streams = 3; p.stride_bytes = 40;
      p.pointer_chase_fraction = 0.15;
      break;
    case SpecBenchmark::kHmmer:
      // Small hot score tables: extremely cache friendly.
      p.fmem = 0.38; p.working_set_bytes = 8 * KiB; p.zipf_skew = 0.8;
      p.seq_fraction = 0.6; p.num_streams = 2; p.stride_bytes = 8;
      break;
    case SpecBenchmark::kSjeng:
      // Game-tree search: medium footprint, hash-table scatter.
      p.fmem = 0.30; p.working_set_bytes = 48 * KiB; p.zipf_skew = 0.5;
      p.seq_fraction = 0.15; p.num_streams = 2; p.stride_bytes = 48;
      p.alu_dep_fraction = 0.6;
      break;
    case SpecBenchmark::kLibquantum:
      // One long vector stream, very memory intense, trivially prefetchable.
      p.fmem = 0.48; p.working_set_bytes = 8 * MiB; p.zipf_skew = 0.05;
      p.seq_fraction = 0.92; p.num_streams = 1; p.stride_bytes = 16;
      p.alu_dep_fraction = 0.2; p.load_use_fraction = 0.3;
      break;
  }
  p.validate();
  return p;
}

WorkloadProfile burst_profile(std::uint64_t phase_length, double burst_duty,
                              std::uint64_t length, std::uint64_t seed) {
  WorkloadProfile p;
  p.name = "burst";
  p.fmem = 0.18;
  p.working_set_bytes = 1 << 20;
  p.zipf_skew = 0.8;
  p.seq_fraction = 0.6;
  p.num_streams = 4;
  p.phase_length = phase_length;
  p.burst_duty = burst_duty;
  p.burst_fmem = 0.85;
  // Bursts are dense but cache-friendly (a sudden sweep over hot data), so
  // they are short in wall-clock cycles - the regime where the measurement
  // interval races the burst (paper SV).
  p.burst_seq_fraction = 0.85;
  p.length = length;
  p.seed = seed;
  p.validate();
  return p;
}

TraceSourcePtr make_trace(const WorkloadProfile& profile) {
  if (profile.file_backed()) {
    profile.validate();
    // Check the opened reader's header before replaying: the fingerprint
    // memoized on the content checksum, so a file that changed on disk
    // since the profile was built must fail loudly here, not silently
    // simulate a different stream under the old cache key. The check and
    // the replay share one open, so a file swapped after it cannot slip
    // through; one rewritten in place during the replay fails the reader's
    // end-of-stream checksum instead.
    auto reader = std::make_unique<Lpm2Trace>(profile.trace_path, profile.name);
    if (reader->info().checksum != profile.trace_checksum) {
      throw util::IoError("make_trace: " + profile.trace_path +
                          " changed on disk (checksum " +
                          std::to_string(reader->info().checksum) +
                          ", profile expects " +
                          std::to_string(profile.trace_checksum) + ")");
    }
    return reader;
  }
  return std::make_unique<SyntheticTrace>(profile);
}

TraceSourcePtr make_read_ahead_trace(const WorkloadProfile& profile) {
  TraceSourcePtr trace = make_trace(profile);
  if (profile.file_backed()) return trace;
  return std::make_unique<ReadAhead>(std::move(trace));
}

}  // namespace lpm::trace
