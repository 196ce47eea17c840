// Deterministic fault injection for the experiment engine.
//
// A FaultPlan maps *executed-point indices* to failure modes, so every
// retry / timeout / degradation path in the engine can be exercised by unit
// tests and CI instead of waiting for production to hit them:
//
//   LPM_FAULT_SPEC="throw@3,hang@7,io@12"
//
// makes the 3rd executed point throw a SimError, the 7th hang until the
// watchdog cancels it (TimeoutError), and the 12th throw an IoError.
// Indices are 1-based and count *distinct points the engine decides to
// simulate, in submission order* — cache hits do not consume an index,
// and the numbering is identical for a serial and a
// pooled engine (the index is assigned on the submitting thread, not when
// a worker happens to pick the job up). A fault fires on the job's first
// attempt only, so a retrying engine recovers deterministically.
//
// Thread safety: parsing (FaultPlan::parse / from_env) builds an immutable
// plan; at(), empty() and to_string() are const lookups, safe from any
// thread. The executed-point counter lives in the engine (advanced on the
// submitting thread only); workers receive the already-resolved
// std::optional<FaultKind> by value, so the plan is never mutated after
// construction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace lpm::exp {

enum class FaultKind {
  kThrow,  ///< util::SimError from inside the job
  kHang,   ///< blocks until the watchdog cancels it -> util::TimeoutError
  kIo,     ///< util::IoError from inside the job
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultPlan {
  /// 1-based executed-point index -> failure mode.
  std::map<std::uint64_t, FaultKind> points;

  /// Parses "kind@index[,kind@index...]" (kinds: throw | hang | io).
  /// Throws util::ConfigError on malformed specs or duplicate indices.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Plan from $LPM_FAULT_SPEC; empty if unset. A malformed spec is
  /// reported and ignored rather than killing the host process.
  [[nodiscard]] static FaultPlan from_env();

  [[nodiscard]] bool empty() const { return points.empty(); }
  [[nodiscard]] std::optional<FaultKind> at(std::uint64_t index) const;
  [[nodiscard]] std::string to_string() const;
};

}  // namespace lpm::exp
