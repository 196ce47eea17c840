#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lpm::mem {

namespace {
[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Rebuilds `rb` with at least `want` capacity, preserving FIFO order.
/// Never shrinks (pools only ever need to grow on reconfiguration).
template <typename T>
void grow_ring(lpm::util::RingBuffer<T>& rb, std::size_t want) {
  if (rb.capacity() >= want) return;
  lpm::util::RingBuffer<T> grown(want);
  while (!rb.empty()) {
    grown.push(rb.front());
    rb.pop();
  }
  rb = std::move(grown);
}
}  // namespace

void CacheConfig::validate() const {
  using util::require;
  // >= 2 so block-aligned addresses always have a zero low bit, keeping the
  // all-ones invalid-tag sentinel unambiguous.
  require(is_pow2(block_bytes) && block_bytes >= 2,
          name, ": block_bytes must be a power of two >= 2");
  require(is_pow2(size_bytes), name, ": size_bytes must be a power of two");
  require(associativity >= 1, name, ": associativity must be >= 1");
  require(size_bytes >= static_cast<std::uint64_t>(block_bytes) * associativity,
          name, ": cache smaller than one set");
  require(size_bytes % (static_cast<std::uint64_t>(block_bytes) * associativity) == 0,
          name, ": size must be a multiple of block*assoc");
  require(is_pow2(num_sets()), name, ": number of sets must be a power of two");
  require(hit_latency >= 1, name, ": hit_latency must be >= 1");
  require(ports >= 1, name, ": ports must be >= 1");
  require(banks >= 1 && is_pow2(banks), name, ": banks must be a power of two");
  require(interleave_bytes >= block_bytes && is_pow2(interleave_bytes),
          name, ": interleave must be a power of two >= block size");
  require(mshr_entries >= 1, name, ": mshr_entries must be >= 1");
  require(mshr_targets >= 1, name, ": mshr_targets must be >= 1");
  require(writeback_capacity >= 1, name, ": writeback_capacity must be >= 1");
  require(num_cores >= 1, name, ": num_cores must be >= 1");
}

Cache::Cache(CacheConfig cfg, MemoryLevel* below, std::uint64_t id_space)
    : cfg_(std::move(cfg)),
      below_(below),
      mshr_(cfg_.mshr_entries, cfg_.mshr_targets),
      rng_(cfg_.seed),
      next_fill_id_(id_space << 40) {
  cfg_.validate();
  util::require(below_ != nullptr, cfg_.name, ": lower level must exist");
  block_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.block_bytes));
  interleave_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(cfg_.interleave_bytes));
  set_mask_ = cfg_.num_sets() - 1;
  line_tags_.assign(cfg_.num_sets() * cfg_.associativity, kInvalidTag);
  line_flags_.assign(cfg_.num_sets() * cfg_.associativity, 0);
  repl_ = ReplacementTable(cfg_.replacement, cfg_.num_sets(), cfg_.associativity);
  bank_accepts_.assign(cfg_.banks, 0);
  stats_.core_accesses.assign(cfg_.num_cores, 0);
  stats_.core_misses.assign(cfg_.num_cores, 0);
  effective_prefetch_degree_ = cfg_.prefetch_degree;
  runtime_ports_ = cfg_.ports;
  runtime_per_bank_ = cfg_.per_bank_limit();
  runtime_mshr_limit_ = cfg_.mshr_entries;
  // Bound the replay queue: enough to absorb a burst, small enough that MSHR
  // saturation back-pressures the upper level instead of hiding in a queue.
  mshr_wait_cap_ = static_cast<std::size_t>(cfg_.mshr_entries) * 2 + 8;
  reserve_pools();
  release_scratch_.reserve(cfg_.mshr_targets);
}

void Cache::reserve_pools() {
  // Pipeline bound: at most ports accepts per cycle, each resident exactly
  // hit_latency cycles (lookups never stall in place).
  const std::size_t in_pipe =
      static_cast<std::size_t>(runtime_ports_) * cfg_.hit_latency;
  grow_ring(pipeline_, in_pipe);
  // Replay bound: admission stops demand once mshr_wait_.size() >=
  // mshr_wait_cap_, but every access already inside the lookup pipeline may
  // still miss into the queue after the gate closed.
  grow_ring(mshr_wait_, mshr_wait_cap_ + in_pipe);
  // A fill response / deferred install corresponds to a still-valid MSHR
  // entry, so both queues are bounded by the MSHR file size.
  grow_ring(fill_q_, cfg_.mshr_entries);
  grow_ring(deferred_fill_blocks_, cfg_.mshr_entries);
  // Prefetch candidates are capped at degree*8 (drop-oldest beyond that).
  grow_ring(prefetch_q_, std::max<std::size_t>(
                             1, static_cast<std::size_t>(cfg_.prefetch_degree) * 8));
}

std::uint64_t Cache::set_index(Addr addr) const {
  return (addr >> block_shift_) & set_mask_;
}

std::uint32_t Cache::bank_of(Addr addr) const {
  return static_cast<std::uint32_t>(addr >> interleave_shift_) & (cfg_.banks - 1);
}

std::uint32_t Cache::find_way(Addr addr) const {
  const Addr blk = block_addr(addr);
  const Addr* base = &line_tags_[set_index(addr) * cfg_.associativity];
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    if (base[w] == blk) return w;  // kInvalidTag never equals a block address
  }
  return kNoWay;
}

bool Cache::contains_block(Addr addr) const { return find_way(addr) != kNoWay; }

bool Cache::block_dirty(Addr addr) const {
  const std::uint32_t way = find_way(addr);
  if (way == kNoWay) return false;
  return (line_flags_[set_index(addr) * cfg_.associativity + way] & kLineDirty) != 0;
}

bool Cache::try_access(const MemRequest& req) {
  const Cycle now = accept_cycle_;
  // try_access may be called by upper components after this cache's tick for
  // the same cycle; accept_cycle_ tracks the cycle tick() last saw.
  const bool is_writeback = req.kind == AccessKind::kWrite && req.reply_to == nullptr;

  if (accepted_this_cycle_ >= runtime_ports_) {
    ++stats_.rejected_ports;
    return false;
  }
  const std::uint32_t bank = bank_of(req.addr);
  if (bank_accepts_[bank] >= runtime_per_bank_) {
    ++stats_.rejected_bank;
    return false;
  }
  if (!is_writeback && mshr_wait_.size() >= mshr_wait_cap_) {
    // Do not admit demand traffic we could not even queue a miss for.
    ++stats_.rejected_backlog;
    return false;
  }

  ++accepted_this_cycle_;
  ++bank_accepts_[bank];
  pipeline_.push(LookupEntry{req, now + cfg_.hit_latency, is_writeback});

  if (!is_writeback) {
    ++demand_in_pipeline_;
    ++stats_.accesses;
    if (req.core < cfg_.num_cores) ++stats_.core_accesses[req.core];
    if (probe_ != nullptr) {
      probe_->on_access(req.id, now, req.kind == AccessKind::kWrite);
    }
  }
  return true;
}

void Cache::on_response(const MemResponse& rsp) { fill_q_.push(rsp); }

void Cache::sample_activity(Cycle cycle) {
  if (probe_ == nullptr) return;
  // demand_in_pipeline_ counts the demand accesses currently in their hit
  // (lookup) phase; writebacks are bandwidth, not demand accesses, and are
  // excluded from C-AMAT counters.
  //
  // Once the probe has seen one zero-activity cycle with no outstanding miss
  // (no demand lookup in flight, no MSHR entry, no replayed miss waiting),
  // further idle samples cannot change any metric: they only re-zero the
  // phase-edge state. Skip them so quiet caches cost nothing per cycle.
  const bool idle = demand_in_pipeline_ == 0 && mshr_.in_use() == 0 &&
                    mshr_wait_.empty();
  if (idle && probe_quiesced_) return;
  probe_->on_cycle_activity(cycle, demand_in_pipeline_);
  probe_quiesced_ = idle;
}

void Cache::tick(Cycle now) {
  // (1) Probe sampling for the *previous* cycle: all state mutations for it
  // (including late try_access calls from upper components) are complete.
  if (now > 0) sample_activity(now - 1);

  // (2) Reset per-cycle acceptance accounting (bank counters only when
  // something was accepted; they are already zero otherwise).
  accept_cycle_ = now;
  if (accepted_this_cycle_ != 0) {
    std::fill(bank_accepts_.begin(), bank_accepts_.end(), 0);
    accepted_this_cycle_ = 0;
  }

  // Idle fast path: with nothing in flight anywhere, steps (3)-(7) are all
  // no-ops. This is the common case for upper levels whose working set fits
  // (and for every level while the core crunches ALU phases).
  if (idle()) return;

  // (3) Install fills: deferred ones first (FIFO fairness), then new ones.
  for (std::size_t i = deferred_fill_blocks_.size(); i > 0; --i) {
    const Addr blk = deferred_fill_blocks_.front();
    deferred_fill_blocks_.pop();
    if (!try_install_fill(blk, now)) {
      deferred_fill_blocks_.push(blk);
      break;  // still blocked on writeback space; keep order
    }
  }
  while (!fill_q_.empty()) {
    const MemResponse rsp = fill_q_.front();
    fill_q_.pop();
    const Addr blk = block_addr(rsp.addr);
    if (!try_install_fill(blk, now)) {
      ++stats_.deferred_fills;
      deferred_fill_blocks_.push(blk);
    }
  }

  // (4) Retry misses waiting for MSHR resources (entries may have freed).
  if (!mshr_wait_.empty()) retry_waiting_misses(now);

  // (5) Complete lookups whose pipeline latency elapsed.
  while (!pipeline_.empty() && pipeline_.front().ready <= now) {
    const LookupEntry entry = pipeline_.front();
    pipeline_.pop();
    if (!entry.is_writeback) --demand_in_pipeline_;
    complete_lookup(entry, now);
  }

  // (6) Turn prefetch candidates into MSHR entries (demand keeps one
  // reserved entry), then send not-yet-issued fills downstream.
  launch_prefetches(now);
  issue_pending_fills(now);

  // (7) Drain the writeback buffer.
  drain_writebacks();
}

void Cache::retry_waiting_misses(Cycle now) {
  // A failed retry changes nothing but two counters, so while the MSHR
  // state every waiting miss failed against stands, the pass is credited
  // in bulk rather than replayed.
  if (wait_gate_holds()) {
    stats_.mshr_full_waits += mshr_wait_.size();
    stats_.quota_waits += wait_gate_.quota_failures;
    return;
  }
  const std::uint64_t quota_before = stats_.quota_waits;
  bool all_failed = true;
  for (std::size_t i = mshr_wait_.size(); i > 0; --i) {
    const WaitingMiss wm = mshr_wait_.front();
    mshr_wait_.pop();
    if (try_handle_miss(wm.req, wm.miss_start, now)) {
      all_failed = false;
    } else {
      mshr_wait_.push(wm);
      ++stats_.mshr_full_waits;
    }
  }
  wait_gate_ = WaitGate{all_failed, mshr_.mutations(), runtime_mshr_limit_,
                        stats_.quota_waits - quota_before};
}

void Cache::note_prefetch_useful() { ++pf_window_useful_; }

void Cache::adapt_prefetch_degree() {
  if (pf_window_issued_ < cfg_.prefetch_accuracy_window) return;
  const double accuracy = static_cast<double>(pf_window_useful_) /
                          static_cast<double>(pf_window_issued_);
  if (accuracy < 0.15) {
    effective_prefetch_degree_ = 1;  // probe mode: keep sampling accuracy
  } else if (accuracy < 0.40) {
    effective_prefetch_degree_ =
        std::max<std::uint32_t>(1, cfg_.prefetch_degree / 2);
  } else {
    effective_prefetch_degree_ = cfg_.prefetch_degree;
  }
  pf_window_issued_ = 0;
  pf_window_useful_ = 0;
}

void Cache::schedule_prefetches(Addr demand_block, CoreId core) {
  if (effective_prefetch_degree_ == 0) return;
  // Keep the candidate queue bounded; stale candidates are the least useful,
  // so the oldest are dropped to make room for fresh ones.
  const std::size_t cap = static_cast<std::size_t>(cfg_.prefetch_degree) * 8;
  for (std::uint32_t i = 1; i <= effective_prefetch_degree_; ++i) {
    while (prefetch_q_.size() >= cap) prefetch_q_.pop();
    prefetch_q_.push(PrefetchCandidate{
        demand_block + static_cast<Addr>(i) * cfg_.block_bytes, core});
  }
}

void Cache::launch_prefetches(Cycle now) {
  while (!prefetch_q_.empty()) {
    // Always leave one MSHR entry free for demand misses.
    if (mshr_.in_use() + 1 >= std::min(mshr_.capacity(), runtime_mshr_limit_)) {
      break;
    }
    const PrefetchCandidate cand = prefetch_q_.front();
    prefetch_q_.pop();
    if (contains_block(cand.block) || mshr_.find(cand.block).has_value()) continue;
    if (cfg_.mshr_quota_per_core > 0 && cand.core != kNoCore &&
        mshr_.in_use_by(cand.core) >= cfg_.mshr_quota_per_core) {
      continue;  // prefetches never exceed their core's parallelism share
    }
    mshr_.allocate_prefetch(cand.block, now, cand.core);
    ++mshr_unissued_;
    ++stats_.prefetches_issued;
    ++pf_window_issued_;
    adapt_prefetch_degree();
  }
}

void Cache::complete_lookup(const LookupEntry& entry, Cycle now) {
  const MemRequest& req = entry.req;
  const std::uint32_t way = find_way(req.addr);
  const std::size_t slot =
      way == kNoWay ? 0 : set_index(req.addr) * cfg_.associativity + way;

  if (entry.is_writeback) {
    if (way != kNoWay) {
      line_flags_[slot] |= kLineDirty;
      repl_.touch(set_index(req.addr), way, ++repl_tick_);
      ++stats_.writeback_hits;
    } else {
      // No allocation on writeback miss: forward the dirty data downstream.
      MemRequest fwd = req;
      fwd.addr = block_addr(req.addr);
      writeback_q_.push_back(fwd);
      ++stats_.writeback_forwards;
    }
    return;
  }

  if (way != kNoWay) {
    ++stats_.hits;
    if ((line_flags_[slot] & kLinePrefetched) != 0) {
      // First demand touch of a prefetched line: the stream is live, keep
      // running ahead of it (classic tagged next-N-line prefetching).
      ++stats_.prefetch_hits;
      note_prefetch_useful();
      line_flags_[slot] &= static_cast<std::uint8_t>(~kLinePrefetched);
      schedule_prefetches(block_addr(req.addr), req.core);
    }
    if (req.kind == AccessKind::kWrite) line_flags_[slot] |= kLineDirty;
    repl_.touch(set_index(req.addr), way, ++repl_tick_);
    if (probe_ != nullptr) probe_->on_hit(req.id, now);
    if (req.reply_to != nullptr) {
      req.reply_to->on_response(MemResponse{req.id, req.core, req.addr, now});
    }
    return;
  }

  // Miss: it becomes outstanding now, whether or not an MSHR is available.
  ++stats_.misses;
  if (req.core < cfg_.num_cores) ++stats_.core_misses[req.core];
  if (probe_ != nullptr) probe_->on_miss(req.id, now);
  const std::uint64_t quota_before = stats_.quota_waits;
  if (!try_handle_miss(req, now, now)) {
    mshr_wait_.push(WaitingMiss{req, now});
    // It failed against the gated state (if that still holds): the next
    // bulk credit must count its quota failure too.
    if (wait_gate_holds()) {
      wait_gate_.quota_failures += stats_.quota_waits - quota_before;
    }
  }
  schedule_prefetches(block_addr(req.addr), req.core);
}

bool Cache::try_handle_miss(const MemRequest& req, Cycle miss_start, Cycle now) {
  const Addr blk = block_addr(req.addr);
  const MshrTarget target{req.id, req.core, req.kind, req.reply_to, miss_start};

  if (const auto idx = mshr_.find(blk)) {
    if (!mshr_.can_add_target(*idx)) return false;
    if (mshr_.entry(*idx).is_prefetch) {
      // A demand miss caught up with an in-flight prefetch: the prefetch
      // absorbs (part of) the miss penalty.
      ++stats_.prefetch_coalesced;
      note_prefetch_useful();
    }
    mshr_.add_target(*idx, target);
    ++stats_.mshr_coalesced;
    return true;
  }
  if (!mshr_.can_allocate() || mshr_.in_use() >= runtime_mshr_limit_) {
    return false;
  }
  if (cfg_.mshr_quota_per_core > 0 && req.core != kNoCore &&
      mshr_.in_use_by(req.core) >= cfg_.mshr_quota_per_core) {
    ++stats_.quota_waits;
    return false;
  }
  mshr_.allocate(blk, target, now);
  ++mshr_unissued_;
  return true;
}

void Cache::issue_pending_fills(Cycle now) {
  if (mshr_unissued_ == 0) return;
  // Index order is issue order (see MshrFile); free entries are skipped.
  const std::uint32_t cap = mshr_.capacity();
  for (std::uint32_t idx = mshr_.next_valid(0); idx < cap;
       idx = mshr_.next_valid(idx + 1)) {
    MshrEntry& e = mshr_.entry(idx);
    if (e.issued) continue;
    MemRequest fill;
    fill.id = next_fill_id_++;
    fill.core = e.targets.empty() ? e.core : e.targets.front().core;
    fill.addr = e.block_addr;
    fill.kind = AccessKind::kRead;
    fill.created = now;
    fill.reply_to = this;
    if (below_->try_access(fill)) {
      e.issued = true;
      e.fill_id = fill.id;
      if (--mshr_unissued_ == 0) return;
    }
    // On rejection we simply retry next cycle.
  }
}

bool Cache::try_install_fill(Addr blk, Cycle now) {
  const auto idx = mshr_.find(blk);
  util::require(idx.has_value(), "Cache: fill for unknown block");

  const std::uint64_t set = set_index(blk);
  const std::size_t base = set * cfg_.associativity;

  std::uint32_t way = cfg_.associativity;  // sentinel
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    if (line_tags_[base + w] == kInvalidTag) {
      way = w;
      break;
    }
  }
  if (way == cfg_.associativity) {
    way = repl_.victim(set, rng_);
    if ((line_flags_[base + way] & kLineDirty) != 0) {
      if (writeback_q_.size() >= cfg_.writeback_capacity) {
        return false;  // no room to evict; defer the install
      }
      MemRequest wb;
      wb.id = next_fill_id_++;
      wb.core = kNoCore;
      wb.addr = line_tags_[base + way];
      wb.kind = AccessKind::kWrite;
      wb.created = now;
      wb.reply_to = nullptr;
      writeback_q_.push_back(wb);
      ++stats_.writebacks;
    }
    ++stats_.evictions;
  }

  const bool pure_prefetch =
      mshr_.entry(*idx).is_prefetch && mshr_.entry(*idx).targets.empty();
  line_tags_[base + way] = blk;
  line_flags_[base + way] = pure_prefetch ? kLinePrefetched : 0;
  repl_.fill(set, way, ++repl_tick_);
  ++stats_.fills;

  mshr_.release_into(*idx, release_scratch_);
  for (const MshrTarget& t : release_scratch_) {
    if (t.kind == AccessKind::kWrite) line_flags_[base + way] |= kLineDirty;
    if (probe_ != nullptr) probe_->on_miss_done(t.id, now);
    if (t.reply_to != nullptr) {
      t.reply_to->on_response(MemResponse{t.id, t.core, blk, now});
    }
  }
  return true;
}

void Cache::set_ports(std::uint32_t ports) {
  util::require(ports >= 1, cfg_.name, ": ports must be >= 1");
  if (ports == runtime_ports_) return;
  runtime_ports_ = ports;
  runtime_per_bank_ = cfg_.banks == 1
                          ? runtime_ports_
                          : std::max<std::uint32_t>(1, runtime_ports_ / cfg_.banks);
  reserve_pools();  // more ports -> deeper pipeline and more in-flight misses
  ++reconfig_ops_;
}

void Cache::set_mshr_limit(std::uint32_t limit) {
  const std::uint32_t clamped =
      std::max<std::uint32_t>(1, std::min(limit, cfg_.mshr_entries));
  if (clamped == runtime_mshr_limit_) return;
  runtime_mshr_limit_ = clamped;
  ++reconfig_ops_;
}

void Cache::set_prefetch_degree(std::uint32_t degree) {
  if (degree == cfg_.prefetch_degree && degree == effective_prefetch_degree_) {
    return;
  }
  cfg_.prefetch_degree = degree;  // new adaptation target
  effective_prefetch_degree_ = degree;
  reserve_pools();  // a higher degree widens the candidate queue
  ++reconfig_ops_;
}

void Cache::drain_writebacks() {
  while (!writeback_q_.empty()) {
    if (!below_->try_access(writeback_q_.front())) break;
    writeback_q_.pop_front();
  }
}

void Cache::finalize(Cycle end_cycle) { sample_activity(end_cycle); }

bool Cache::busy() const {
  return !pipeline_.empty() || mshr_.in_use() > 0 || !mshr_wait_.empty() ||
         !writeback_q_.empty() || !fill_q_.empty() || !deferred_fill_blocks_.empty();
}

bool Cache::idle() const {
  return pipeline_.empty() && fill_q_.empty() && deferred_fill_blocks_.empty() &&
         mshr_wait_.empty() && mshr_.in_use() == 0 && writeback_q_.empty() &&
         prefetch_q_.empty();
}

bool Cache::dormant() const {
  // An empty pipeline also means nothing was accepted since the last tick,
  // so tick() has no per-cycle port state left to reset.
  return idle() && (probe_ == nullptr || probe_quiesced_);
}

void CacheStats::publish(obs::MetricsRegistry& registry,
                         const std::string& level) const {
  registry.counter("sim.cache.accesses." + level).add(accesses);
  registry.counter("sim.cache.hits." + level).add(hits);
  registry.counter("sim.cache.misses." + level).add(misses);
}

}  // namespace lpm::mem
