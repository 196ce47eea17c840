// Reference out-of-order core: the oracle counterpart of cpu::OooCore.
//
// Deliberately slow and straight-line, and sharing no code with src/cpu
// (only the CoreConfig/CoreStats data types, which SystemResult carries).
// Each cycle runs the same five steps in the same order as the optimized
// core — absorb responses, complete ALU ops, commit, issue, dispatch — but
// issue rescans the whole ROB from the head every cycle and re-derives each
// waiting entry's readiness from its producers' states, oldest first. A
// store accepted earlier in the scan is already done when a younger
// dependent is tested, so it wakes that dependent in the same pass.
//
// Differential testing runs this core under RefSystem and requires
// CoreStats (and everything downstream of the core's request stream) to be
// bit-identical to the dependence-counted wakeup of cpu::OooCore.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cpu/core_config.hpp"
#include "mem/request.hpp"
#include "trace/trace_source.hpp"

namespace lpm::check {

class RefCore final : public mem::ResponseSink {
 public:
  /// `l1` and `source` are non-owning and must outlive the core. `id_space`
  /// tags request ids exactly as cpu::OooCore does.
  RefCore(cpu::CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
          std::uint64_t id_space);

  /// Advances one cycle; call after the memory hierarchy's tick.
  void tick(Cycle now);
  [[nodiscard]] bool finished() const;
  void on_response(const mem::MemResponse& rsp) override;
  [[nodiscard]] const cpu::CoreStats& stats() const { return stats_; }

 private:
  enum class State : std::uint8_t { kWaiting, kExecuting, kMemWaiting, kDone };
  struct Entry {
    trace::MicroOp op;
    std::uint64_t seq = 0;  ///< dynamic instruction number
    State state = State::kWaiting;
    Cycle done_at = 0;
  };

  /// True when the producer `dist` instructions before `seq` is done,
  /// retired, or absent (dist 0 or reaching before the first instruction).
  [[nodiscard]] bool producer_done(std::uint64_t seq, std::uint32_t dist) const;

  cpu::CoreConfig cfg_;
  trace::TraceSource* source_;
  mem::MemoryLevel* l1_;
  std::uint64_t id_base_;
  std::deque<Entry> rob_;          ///< oldest first
  std::uint64_t head_seq_ = 0;     ///< seq of rob_.front()
  std::uint64_t next_seq_ = 0;
  std::uint64_t waiting_ = 0;      ///< dispatched, not yet issued
  std::uint64_t in_flight_ = 0;    ///< accepted memory ops not yet answered
  std::deque<mem::MemResponse> responses_;
  bool trace_done_ = false;
  cpu::CoreStats stats_;
};

}  // namespace lpm::check
