// Non-blocking, multi-port, banked, pipelined set-associative cache.
//
// This is the substrate the LPM paper assumes: concurrency-driven cache
// structures (multi-port / multi-bank / pipelined lookup / MSHRs) whose
// parameters are the Table-I reconfiguration knobs. The cache is
// write-back / write-allocate for demand traffic; writebacks arriving from
// an upper level are absorbed on hit and forwarded downstream on miss
// (no fetch-on-writeback).
//
// Timing model:
//  * try_access() accepts up to `ports` demand/writeback requests per cycle,
//    at most max(1, ports/banks) per bank per cycle.
//  * every accepted request occupies the lookup pipeline for `hit_latency`
//    cycles; those cycles are its *hit phase* (C-AMAT hit activity), for
//    hits and misses alike (paper Fig. 1).
//  * a miss allocates (or coalesces onto) an MSHR entry and is outstanding
//    until the block fill returns from the level below; if the MSHR file is
//    saturated the miss waits in a bounded replay queue.
//  * dirty victims enter a bounded writeback buffer drained to the level
//    below; a fill that cannot evict (buffer full) is deferred.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "mem/mshr.hpp"
#include "mem/probe.hpp"
#include "mem/replacement.hpp"

namespace lpm::obs {
class MetricsRegistry;
}
#include "mem/request.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace lpm::mem {

struct CacheConfig {
  std::string name = "L1";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t block_bytes = 64;
  std::uint32_t associativity = 4;
  std::uint32_t hit_latency = 3;   ///< lookup pipeline depth (cycles)
  std::uint32_t ports = 1;         ///< accepted accesses per cycle
  std::uint32_t banks = 1;         ///< independent banks (interleaving)
  std::uint64_t interleave_bytes = 64;  ///< bank interleaving granularity
  std::uint32_t mshr_entries = 4;
  std::uint32_t mshr_targets = 8;  ///< coalesced accesses per entry
  std::uint32_t writeback_capacity = 8;
  /// Tagged next-N-line prefetcher: a demand miss on block B also requests
  /// B+1 .. B+prefetch_degree (0 disables). Prefetches ride ordinary MSHR
  /// entries (one is always reserved for demand misses), so the MSHR knob
  /// throttles prefetch aggressiveness exactly like any other concurrency.
  /// The effective degree adapts to measured accuracy (useful/issued over a
  /// window): irregular access patterns automatically squelch the streamer.
  std::uint32_t prefetch_degree = 0;
  std::uint32_t prefetch_accuracy_window = 256;  ///< issued prefetches per adaptation
  /// Memory parallelism partition (paper SVII future work): when non-zero,
  /// each core may occupy at most this many MSHR entries, preventing one
  /// miss-heavy program from monopolizing the shared level's concurrency.
  /// Coalescing onto an existing entry is always allowed.
  std::uint32_t mshr_quota_per_core = 0;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  std::uint32_t num_cores = 1;     ///< for per-core attribution counters
  std::uint64_t seed = 99;         ///< random-replacement stream

  void validate() const;
  [[nodiscard]] std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(block_bytes) * associativity);
  }
  /// Per-bank acceptances per cycle: a monolithic array (banks == 1) exposes
  /// all its ports; a banked array gives each bank ports/banks (>= 1).
  [[nodiscard]] std::uint32_t per_bank_limit() const {
    return banks == 1 ? ports : std::max<std::uint32_t>(1, ports / banks);
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;       ///< demand accesses (loads + stores)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;         ///< includes coalesced (MSHR-hit) misses
  std::uint64_t mshr_coalesced = 0;
  std::uint64_t rejected_ports = 0;
  std::uint64_t rejected_bank = 0;
  std::uint64_t rejected_backlog = 0;
  std::uint64_t mshr_full_waits = 0;  ///< miss-cycles spent waiting for an MSHR
  std::uint64_t writebacks = 0;
  std::uint64_t writeback_hits = 0;   ///< upper-level writebacks absorbed
  std::uint64_t writeback_forwards = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t deferred_fills = 0;
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_hits = 0;     ///< demand hits on prefetched lines
  std::uint64_t prefetch_coalesced = 0;  ///< demand misses absorbed by an in-flight prefetch
  std::uint64_t quota_waits = 0;  ///< miss-allocations deferred by the MSHR quota
  std::vector<std::uint64_t> core_accesses;
  std::vector<std::uint64_t> core_misses;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) / static_cast<double>(accesses);
  }

  /// Exact counter-wise equality (differential testing compares whole
  /// stats blocks between the optimized cache and check::RefCache).
  friend bool operator==(const CacheStats&, const CacheStats&) = default;

  /// Bulk-adds this stats block to the per-level counters
  /// sim.cache.{accesses,hits,misses}.<level> in `registry` (called once
  /// per run epilogue, never per cycle). Thread-safe.
  void publish(obs::MetricsRegistry& registry, const std::string& level) const;
};

class Cache final : public MemoryLevel, public ResponseSink {
 public:
  /// `below` is non-owning and must outlive the cache. `id_space`
  /// disambiguates fill-request ids when several caches share a lower level.
  Cache(CacheConfig cfg, MemoryLevel* below, std::uint64_t id_space = 1);

  /// Attaches the C-AMAT probe (non-owning; may be nullptr).
  void set_probe(AccessProbe* probe) { probe_ = probe; }

  bool try_access(const MemRequest& req) override;
  void tick(Cycle now) override;
  void finalize(Cycle end_cycle) override;
  [[nodiscard]] bool busy() const override;
  /// True when tick() does nothing until an upper level calls try_access:
  /// no queued or in-flight work, no MSHR in use, and the probe already
  /// saw its last idle cycle. sim::System retires a finished core's L1
  /// (and private L2) from its cycle loop on this.
  [[nodiscard]] bool dormant() const;

  /// Fills arriving from the level below.
  void on_response(const MemResponse& rsp) override;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Test hook: whether `addr`'s block currently resides in the array.
  [[nodiscard]] bool contains_block(Addr addr) const;
  /// Test hook: whether `addr`'s block is dirty (false if absent).
  [[nodiscard]] bool block_dirty(Addr addr) const;

  // --- online reconfiguration (paper SIV: configurable hardware) ---
  // Concurrency knobs may be re-set while the cache runs; in-flight work is
  // unaffected (a lowered MSHR limit drains naturally). Each call counts as
  // one reconfiguration operation (the paper charges 4 cycles apiece;
  // callers account the cost).
  void set_ports(std::uint32_t ports);
  void set_mshr_limit(std::uint32_t limit);  ///< clamped to [1, cfg.mshr_entries]
  void set_prefetch_degree(std::uint32_t degree);
  [[nodiscard]] std::uint32_t ports() const { return runtime_ports_; }
  [[nodiscard]] std::uint32_t mshr_limit() const { return runtime_mshr_limit_; }
  [[nodiscard]] std::uint32_t prefetch_degree() const {
    return effective_prefetch_degree_;
  }
  [[nodiscard]] std::uint64_t reconfigurations() const { return reconfig_ops_; }

  [[nodiscard]] Addr block_addr(Addr addr) const {
    return addr & ~static_cast<Addr>(cfg_.block_bytes - 1);
  }

 private:
  // Line metadata is structure-of-arrays: the lookup fast path scans only
  // the contiguous tag array (8 bytes per way); dirty/prefetched bits live
  // in a separate flag array touched on hit/fill/evict. Validity is encoded
  // in the tag itself (kInvalidTag never equals a block-aligned address),
  // so a tag match needs no second load.
  static constexpr Addr kInvalidTag = ~Addr{0};
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
  static constexpr std::uint8_t kLineDirty = 1u << 0;
  static constexpr std::uint8_t kLinePrefetched = 1u << 1;

  struct LookupEntry {
    MemRequest req;
    Cycle ready = 0;
    bool is_writeback = false;
  };

  [[nodiscard]] std::uint64_t set_index(Addr addr) const;
  [[nodiscard]] std::uint32_t bank_of(Addr addr) const;
  /// Way of `addr`'s block within its set, or kNoWay when absent.
  [[nodiscard]] std::uint32_t find_way(Addr addr) const;

  /// Nothing queued or in flight: tick() steps (3)-(7) are all no-ops.
  [[nodiscard]] bool idle() const;
  void sample_activity(Cycle cycle);
  void complete_lookup(const LookupEntry& entry, Cycle now);
  /// Attempts MSHR allocation/coalescing; false = must wait and retry.
  bool try_handle_miss(const MemRequest& req, Cycle miss_start, Cycle now);
  /// Tick step (4): replays the MSHR-wait queue, or credits it in bulk.
  void retry_waiting_misses(Cycle now);
  /// Installs a filled block; false = deferred (writeback buffer full).
  bool try_install_fill(Addr blk, Cycle now);
  void issue_pending_fills(Cycle now);
  void drain_writebacks();
  void schedule_prefetches(Addr demand_block, CoreId core);
  void launch_prefetches(Cycle now);

  CacheConfig cfg_;
  MemoryLevel* below_;          // non-owning
  AccessProbe* probe_ = nullptr;  // non-owning

  // Power-of-two geometry, decoded with shifts and masks.
  std::uint32_t block_shift_ = 0;       // log2(block_bytes)
  std::uint32_t interleave_shift_ = 0;  // log2(interleave_bytes)
  std::uint64_t set_mask_ = 0;          // num_sets - 1

  std::vector<Addr> line_tags_;           // num_sets * assoc, row-major by set
  std::vector<std::uint8_t> line_flags_;  // kLineDirty | kLinePrefetched
  ReplacementTable repl_;  // sized after cfg_.validate()
  MshrFile mshr_;
  util::Rng rng_;

  // Hot queues are preallocated ring buffers (no steady-state allocation);
  // each one's capacity is a provable occupancy bound, re-derived by
  // reserve_pools() when a reconfiguration knob loosens it. Only
  // writeback_q_ stays a deque: forwarded upper-level writebacks have no
  // structural bound when the level below refuses traffic.
  util::RingBuffer<LookupEntry> pipeline_{1};  // <= ports * hit_latency
  struct WaitingMiss {
    MemRequest req;
    Cycle miss_start = 0;
  };
  // Replay pool: admission caps demand at mshr_wait_cap_, but accesses
  // already in the lookup pipeline may still miss into the queue, so the
  // pool carries ports*hit_latency slack.
  util::RingBuffer<WaitingMiss> mshr_wait_{1};
  // MSHR-wait gate: the MSHR state (mutation count and allocation limit)
  // every queued miss last failed against, and how many of those failures
  // were quota failures. While the state is unchanged a replay would fail
  // every miss again, so tick() credits it in bulk instead.
  struct WaitGate {
    bool armed = false;
    std::uint64_t mutations = 0;
    std::uint32_t limit = 0;
    std::uint64_t quota_failures = 0;
  };
  WaitGate wait_gate_;
  [[nodiscard]] bool wait_gate_holds() const {
    return wait_gate_.armed && wait_gate_.mutations == mshr_.mutations() &&
           wait_gate_.limit == runtime_mshr_limit_;
  }
  void reserve_pools();
  std::deque<MemRequest> writeback_q_;
  util::RingBuffer<MemResponse> fill_q_{1};  // <= one per MSHR entry
  util::RingBuffer<Addr> deferred_fill_blocks_{1};  // <= one per MSHR entry
  struct PrefetchCandidate {
    Addr block = 0;
    CoreId core = kNoCore;
  };
  // Candidates awaiting an MSHR; at capacity the oldest candidate is
  // dropped (stale prefetches are the least useful).
  util::RingBuffer<PrefetchCandidate> prefetch_q_{1};
  std::uint32_t effective_prefetch_degree_ = 0;
  std::uint64_t pf_window_issued_ = 0;
  std::uint64_t pf_window_useful_ = 0;
  void note_prefetch_useful();
  void adapt_prefetch_degree();

  Cycle accept_cycle_ = kNoCycle;
  std::uint32_t accepted_this_cycle_ = 0;
  std::uint32_t runtime_ports_ = 1;       // live value of the ports knob
  std::uint32_t runtime_per_bank_ = 1;    // derived per-bank acceptance cap
  std::uint32_t runtime_mshr_limit_ = 1;  // live cap on MSHR allocations
  std::uint64_t reconfig_ops_ = 0;
  std::vector<std::uint32_t> bank_accepts_;  // per-bank accepts this cycle
  std::uint64_t repl_tick_ = 0;              // logical time for LRU/FIFO
  RequestId next_fill_id_;
  std::size_t mshr_wait_cap_;

  // Hot-path bookkeeping kept incrementally so per-cycle work is O(1) when
  // the cache is quiet:
  std::uint32_t demand_in_pipeline_ = 0;  // non-writeback lookups in flight
  std::uint32_t mshr_unissued_ = 0;       // valid entries not yet sent below
  bool probe_quiesced_ = false;  // probe already saw a zero-activity cycle
  std::vector<MshrTarget> release_scratch_;  // reused by try_install_fill

  CacheStats stats_;
};

}  // namespace lpm::mem
