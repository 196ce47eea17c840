// Replay cases: a (MachineConfig, per-core micro-op lists) pair that can be
// serialized to a flat JSON file and re-run bit-identically later.
//
// This is the exchange format of the differential harness: when the fuzzer
// finds a divergence it delta-debugs the trace down to a minimal repro and
// writes it as a replay file; `tools/lpm_replay` re-executes such a file
// against both the optimized and the reference simulator. The file is one
// flat JSON object on one line (util::JsonWriter out, util::FlatJson in —
// no nested containers, and any whitespace layout loads): machine knobs
// appear as dotted scalar keys ("l1.mshr_entries":4) and each core's
// trace as one compact op string ("ops.0":"l40:0:0:1;a0:1:0:2").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine_config.hpp"
#include "trace/instruction.hpp"
#include "trace/trace_source.hpp"

namespace lpm::check {

struct ReplayCase {
  sim::MachineConfig machine;
  std::vector<std::vector<trace::MicroOp>> ops;  ///< one list per core

  /// Fresh VectorTrace sources replaying `ops`, one per core.
  [[nodiscard]] std::vector<trace::TraceSourcePtr> make_traces() const;
};

/// Serializes to one flat JSON object (lossless for every field the
/// simulators read; 64-bit seeds/cycle budgets are encoded as strings so
/// they survive the double-typed JSON number path).
[[nodiscard]] std::string replay_to_json(const ReplayCase& c);

/// Inverse of replay_to_json. Throws util::LpmError on malformed input.
[[nodiscard]] ReplayCase replay_from_json(const std::string& text);

/// One op list <-> the compact string form used for the "ops.N" values:
/// per op `<t><addr-hex>:<dep>:<dep2>:<lat>` with t in {a,l,s}, joined by
/// ';'. Exposed for tests.
[[nodiscard]] std::string encode_ops(const std::vector<trace::MicroOp>& ops);
[[nodiscard]] std::vector<trace::MicroOp> decode_ops(const std::string& text);

/// File convenience wrappers (throw util::LpmError on I/O failure).
void save_replay(const ReplayCase& c, const std::string& path);
[[nodiscard]] ReplayCase load_replay(const std::string& path);

}  // namespace lpm::check
