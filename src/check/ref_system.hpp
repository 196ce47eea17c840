// Reference system: the oracle counterpart of sim::System.
//
// Wires RefCore + RefCache + RefDram + RefAnalyzer into the same topology
// sim::System builds (per-core L1s, optional private L2s, shared L2/LLC,
// DRAM) with identical id spaces, seeds and tick order, and collects the
// same sim::SystemResult. Differential testing runs both systems on one
// trace and requires result-wise equality (SystemResult::operator==).
//
// Every simulated component is re-implemented here; the two systems share
// only config/stats value types and the request/response plumbing. Each
// reference component is the straight-line form of an optimized one: a
// full ROB rescan instead of dependence-counted wakeup, linear MSHR finds
// instead of the block index, a per-cycle three-pass DRAM queue scan
// instead of the event-gated scheduler, and per-cycle probe samples
// instead of idle skips. RefCore reaches a RefCache only through the
// virtual MemoryLevel path, so the diff also validates the optimized core's
// devirtualized L1 fast path against the vtable path.
#pragma once

#include <memory>
#include <vector>

#include "check/ref_analyzer.hpp"
#include "check/ref_cache.hpp"
#include "check/ref_core.hpp"
#include "check/ref_dram.hpp"
#include "sim/machine_config.hpp"
#include "sim/system.hpp"
#include "trace/trace_source.hpp"

namespace lpm::check {

class RefSystem {
 public:
  RefSystem(sim::MachineConfig cfg, std::vector<trace::TraceSourcePtr> traces);
  RefSystem(const RefSystem&) = delete;
  RefSystem& operator=(const RefSystem&) = delete;

  /// Runs to completion or cfg.max_cycles and returns the collected result.
  sim::SystemResult run();

  [[nodiscard]] bool finished() const;
  bool step();
  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] sim::SystemResult collect() const;

 private:
  sim::MachineConfig cfg_;
  std::vector<trace::TraceSourcePtr> traces_;
  std::unique_ptr<RefDram> dram_;
  std::unique_ptr<RefAnalyzer> dram_analyzer_;
  std::unique_ptr<RefCache> l2_;
  std::unique_ptr<RefAnalyzer> l2_analyzer_;
  std::vector<std::unique_ptr<RefCache>> private_l2s_;
  std::vector<std::unique_ptr<RefAnalyzer>> private_l2_analyzers_;
  std::vector<std::unique_ptr<RefCache>> l1s_;
  std::vector<std::unique_ptr<RefAnalyzer>> l1_analyzers_;
  std::vector<std::unique_ptr<RefCore>> cores_;
  Cycle now_ = 0;
  bool finalized_ = false;
};

}  // namespace lpm::check
