// Trace-driven out-of-order core model.
//
// The model captures exactly the memory-side behaviour the LPM paper needs
// from gem5's O3 CPU: a reorder buffer bounding in-flight work, an
// instruction window bounding the scheduler, an LSQ bounding outstanding
// memory operations, multi-issue, and commit-side stall/overlap accounting
// (Eq. 7/8). Simplifications (no branch mispredictions, no store-to-load
// forwarding, stores retire at L1 acceptance) are documented in DESIGN.md.
// Issue selects oldest first from a ready set maintained by dependence
// counts (DESIGN.md §4); check::RefCore is the slow oracle for the same
// rule.
#pragma once

#include <array>
#include <vector>

#include "cpu/core_config.hpp"
#include "mem/request.hpp"
#include "trace/trace_source.hpp"
#include "util/ring_buffer.hpp"

namespace lpm::mem {
class Cache;
}

namespace lpm::cpu {

class OooCore final : public mem::ResponseSink {
 public:
  /// `l1` and `source` are non-owning and must outlive the core. `id_space`
  /// partitions request-id space among cores sharing a hierarchy.
  OooCore(CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
          std::uint64_t id_space);

  /// Advances one cycle. Call after the memory hierarchy's tick for the
  /// same cycle (bottom-up ticking).
  void tick(Cycle now);

  /// True once the trace is exhausted, the ROB is empty, and no memory
  /// operation is in flight.
  [[nodiscard]] bool finished() const;

  void on_response(const mem::MemResponse& rsp) override;

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }

  /// In-flight accepted memory accesses (test hook).
  [[nodiscard]] std::size_t in_flight_mem() const { return lsq_occupancy_; }

 private:
  enum class State : std::uint8_t {
    kDispatched,  ///< in ROB + IW, waiting for operands / issue slot
    kExecuting,   ///< ALU busy or memory op in flight
    kMemWaiting,  ///< memory op accepted, waiting for response
    kDone,        ///< ready to commit
  };
  /// End of an intrusive waiter list. A list link is a consumer's ROB ring
  /// slot and dependence index packed as (slot << 1 | k).
  static constexpr std::uint32_t kNoWaiter = 0xffffffffu;
  struct RobEntry {
    trace::MicroOp op;
    std::uint64_t index = 0;            ///< dynamic instruction number
    Cycle done_at = kNoCycle;           ///< ALU completion time
    State state = State::kDispatched;
    std::uint8_t pending = 0;           ///< producers not yet kDone (0..2)
    std::uint32_t waiters = kNoWaiter;  ///< head of this entry's waiter list
    /// Next link after this entry's dependence k in its producer's list.
    std::array<std::uint32_t, 2> next_waiter{kNoWaiter, kNoWaiter};
  };

  /// Micro-ops pulled per TraceSource::fill call: one virtual call amortized
  /// over a whole chunk instead of one per dispatched instruction.
  static constexpr std::size_t kTraceChunk = 256;

  /// Memory-request ids carry the ROB sequence number in their low bits
  /// (the id space tag sits above). Sequence numbers are unique for the
  /// lifetime of a core, so no in-flight map is needed to route responses.
  static constexpr std::uint64_t kSeqBits = 48;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  /// Links the entry in ring slot `slot` onto the waiter list of its
  /// producer `dist` instructions back (dependence k), unless that producer
  /// is absent, retired or already done.
  void add_dependence(RobEntry& e, std::size_t slot, unsigned k,
                      std::uint32_t dist);
  /// The one transition to kDone: wakes the entry's waiters, marking each
  /// ready once its last pending producer is done.
  void mark_done(RobEntry& e);
  /// First ready ring slot in [from, end), or `end`.
  [[nodiscard]] std::size_t next_ready(std::size_t from, std::size_t end) const;
  void set_ready(std::size_t slot) {
    ready_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_ready(std::size_t slot) {
    ready_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  void do_commit(Cycle now);
  void do_complete(Cycle now);
  void do_issue(Cycle now);
  void do_dispatch(Cycle now);
  /// Pulls the next chunk from the trace; false = source exhausted.
  bool refill_trace();
  /// L1 access through the devirtualized fast path when the level below is
  /// a concrete mem::Cache (the common case; Cache is final, so the call
  /// resolves statically), else through the MemoryLevel vtable.
  [[nodiscard]] bool l1_try_access(const mem::MemRequest& req);

  CoreConfig cfg_;
  trace::TraceSource* source_;   // non-owning
  mem::MemoryLevel* l1_;         // non-owning
  mem::Cache* l1_cache_ = nullptr;  // == l1_ when it is a Cache; non-owning
  // Trace chunk buffer: fill() writes straight into it, dispatch reads it
  // back out; refilled only when drained, so no wraparound bookkeeping.
  std::array<trace::MicroOp, kTraceChunk> trace_chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_len_ = 0;
  util::RingBuffer<RobEntry> rob_;
  /// One bit per ROB ring slot: unissued entries whose producers are all
  /// done. Issue walks it oldest first from the head slot.
  std::vector<std::uint64_t> ready_;
  std::uint64_t next_index_ = 0;           ///< next dynamic instruction number
  std::uint64_t iw_occupancy_ = 0;         ///< dispatched-not-issued entries
  std::uint64_t lsq_occupancy_ = 0;        ///< memory ops issued-not-completed
  RequestId id_base_;                      ///< id_space tag above the seq bits
  std::vector<std::uint64_t> executing_;   ///< ROB seqs of in-flight ALU ops
  util::RingBuffer<mem::MemResponse> responses_{1};  // sized to LSQ in ctor
  bool trace_done_ = false;
  std::uint64_t committed_this_cycle_ = 0;
  CoreStats stats_;
};

}  // namespace lpm::cpu
