#include "cpu/ooo_core.hpp"

#include <bit>

#include "mem/cache.hpp"
#include "util/error.hpp"

namespace lpm::cpu {

void CoreConfig::validate() const {
  using util::require;
  require(issue_width >= 1, name, ": issue_width must be >= 1");
  require(dispatch_width >= 1, name, ": dispatch_width must be >= 1");
  require(commit_width >= 1, name, ": commit_width must be >= 1");
  require(iw_size >= 1, name, ": iw_size must be >= 1");
  require(rob_size >= 1, name, ": rob_size must be >= 1");
  require(lsq_size >= 1, name, ": lsq_size must be >= 1");
  require(iw_size <= rob_size, name, ": IW cannot exceed the ROB");
}

CoreConfig CoreConfig::in_order(CoreId id) {
  CoreConfig cfg;
  cfg.name = "inorder";
  cfg.id = id;
  cfg.issue_width = 1;
  cfg.dispatch_width = 1;
  cfg.commit_width = 1;
  cfg.iw_size = 1;
  cfg.rob_size = 1;
  cfg.lsq_size = 1;
  return cfg;
}

OooCore::OooCore(CoreConfig cfg, trace::TraceSource* source, mem::MemoryLevel* l1,
                 std::uint64_t id_space)
    : cfg_(std::move(cfg)),
      source_(source),
      l1_(l1),
      rob_(cfg_.rob_size),
      ready_((rob_.slot_count() + 63) / 64, 0),
      id_base_(id_space << kSeqBits) {
  cfg_.validate();
  util::require(source_ != nullptr, cfg_.name, ": trace source must exist");
  util::require(l1_ != nullptr, cfg_.name, ": L1 must exist");
  l1_cache_ = dynamic_cast<mem::Cache*>(l1_);
  executing_.reserve(cfg_.rob_size);  // executing ALU ops are ROB-bounded
  // A response is only in flight for an accepted memory op, so the LSQ depth
  // bounds the response queue.
  responses_ = util::RingBuffer<mem::MemResponse>(cfg_.lsq_size);
}

bool OooCore::l1_try_access(const mem::MemRequest& req) {
  return l1_cache_ != nullptr ? l1_cache_->try_access(req)
                              : l1_->try_access(req);
}

bool OooCore::refill_trace() {
  chunk_len_ = source_->fill(trace_chunk_.data(), kTraceChunk);
  chunk_pos_ = 0;
  return chunk_len_ > 0;
}

void OooCore::add_dependence(RobEntry& e, std::size_t slot, unsigned k,
                             std::uint32_t dist) {
  if (dist == 0 || static_cast<std::uint64_t>(dist) > e.index) return;
  const std::uint64_t dep = e.index - dist;
  if (dep < rob_.head_seq()) return;  // already retired
  RobEntry& producer = rob_.at_slot(rob_.slot_of(dep));  // older, so in the ROB
  if (producer.state == State::kDone) return;
  e.next_waiter[k] = producer.waiters;
  producer.waiters = static_cast<std::uint32_t>(slot << 1 | k);
  ++e.pending;
}

void OooCore::mark_done(RobEntry& e) {
  e.state = State::kDone;
  // Consumers are younger than their producer and commit after it, so
  // every linked slot still holds the consumer that linked itself.
  for (std::uint32_t code = e.waiters; code != kNoWaiter;) {
    const std::size_t slot = code >> 1;
    RobEntry& w = rob_.at_slot(slot);
    code = w.next_waiter[code & 1];
    if (--w.pending == 0) set_ready(slot);
  }
  e.waiters = kNoWaiter;
}

std::size_t OooCore::next_ready(std::size_t from, std::size_t end) const {
  if (from >= end) return end;
  std::size_t w = from >> 6;
  std::uint64_t bits = ready_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w << 6 >= end) return end;
    bits = ready_[w];
  }
  const std::size_t pos = (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
  return pos < end ? pos : end;
}

void OooCore::on_response(const mem::MemResponse& rsp) { responses_.push(rsp); }

void OooCore::tick(Cycle now) {
  if (finished()) return;  // stop accounting once this program is done

  committed_this_cycle_ = 0;

  // (1) Absorb memory responses (possibly generated earlier this cycle by
  // the hierarchy, which ticks before the core). The ROB sequence number is
  // recovered straight from the response id (see kSeqBits).
  while (!responses_.empty()) {
    const mem::MemResponse rsp = responses_.front();
    responses_.pop();
    const std::uint64_t seq = rsp.id & kSeqMask;
    util::require((rsp.id & ~kSeqMask) == id_base_ && seq < next_index_,
                  "OooCore: response for unknown request");
    util::require(lsq_occupancy_ > 0, "OooCore: LSQ underflow");
    --lsq_occupancy_;
    if (rob_.contains_seq(seq)) {
      RobEntry& e = rob_.at_seq(seq);
      if (e.state == State::kMemWaiting) mark_done(e);
    }
    // Stores may already have retired (they commit at L1 acceptance).
  }

  do_complete(now);
  do_commit(now);
  do_issue(now);
  do_dispatch(now);

  // (2) Cycle accounting (Eq. 7/8 definitions; see DESIGN.md). A data-stall
  // cycle is one where the processor is *blocked* waiting for data: nothing
  // commits and the ROB head is an incomplete memory operation. Every other
  // memory-active cycle counts as computation/memory overlap, so stall and
  // overlap exactly partition the memory-active cycles (making Eq. 7 an
  // identity).
  ++stats_.cycles;
  const bool mem_active = lsq_occupancy_ > 0;
  bool head_blocked_on_mem = false;
  if (committed_this_cycle_ == 0 && !rob_.empty()) {
    const RobEntry& head = rob_.front();
    head_blocked_on_mem =
        trace::is_memory(head.op.type) && head.state != State::kDone;
    if (head_blocked_on_mem) ++stats_.head_mem_stall_cycles;
  }
  if (committed_this_cycle_ > 0) ++stats_.commit_cycles;
  if (mem_active) {
    ++stats_.mem_active_cycles;
    if (head_blocked_on_mem) {
      ++stats_.data_stall_cycles;
    } else {
      ++stats_.overlap_cycles;
    }
  }
}

void OooCore::do_complete(Cycle now) {
  // Only ALU ops pass through kExecuting, and an executing entry can neither
  // commit nor be squashed, so its seq stays valid until completion; scanning
  // this compact list replaces a full ROB sweep. Removal order within a cycle
  // is immaterial: every due entry is marked before commit/issue run.
  for (std::size_t i = 0; i < executing_.size();) {
    RobEntry& e = rob_.at_seq(executing_[i]);
    if (e.done_at <= now) {
      mark_done(e);
      executing_[i] = executing_.back();
      executing_.pop_back();
    } else {
      ++i;
    }
  }
}

void OooCore::do_commit(Cycle /*now*/) {
  while (committed_this_cycle_ < cfg_.commit_width && !rob_.empty() &&
         rob_.front().state == State::kDone) {
    const RobEntry& e = rob_.front();
    ++stats_.instructions;
    switch (e.op.type) {
      case trace::OpType::kLoad:
        ++stats_.mem_ops;
        ++stats_.loads;
        break;
      case trace::OpType::kStore:
        ++stats_.mem_ops;
        ++stats_.stores;
        break;
      case trace::OpType::kAlu:
        break;
    }
    rob_.pop();
    ++committed_this_cycle_;
  }
}

void OooCore::do_issue(Cycle now) {
  std::uint32_t issued = 0;
  bool mem_port_blocked = false;
  // Oldest first over the ready set: ring slots [head, end), then [0, head).
  // Each step re-reads the live bitmap, and a wakeup only ever readies a
  // younger slot, so a store accepted here wakes its dependents in this
  // same pass.
  const std::size_t head = rob_.slot_of(rob_.head_seq());
  std::size_t end = rob_.slot_count();
  std::size_t pos = head;
  while (issued < cfg_.issue_width) {
    pos = next_ready(pos, end);
    if (pos == end) {
      if (end != rob_.slot_count() || head == 0) break;
      pos = 0;
      end = head;
      continue;
    }
    const std::size_t slot = pos++;
    RobEntry& e = rob_.at_slot(slot);

    if (e.op.type == trace::OpType::kAlu) {
      e.state = State::kExecuting;
      e.done_at = now + e.op.exec_latency;
      executing_.push_back(e.index);
      clear_ready(slot);
      --iw_occupancy_;
      ++issued;
      continue;
    }

    // Memory op: needs an LSQ slot and an L1 port. A bounced op stays in
    // the ready set.
    if (mem_port_blocked || lsq_occupancy_ >= cfg_.lsq_size) continue;
    mem::MemRequest req;
    req.id = id_base_ | e.index;
    req.core = cfg_.id;
    req.addr = e.op.addr;
    req.kind = e.op.type == trace::OpType::kStore ? mem::AccessKind::kWrite
                                                  : mem::AccessKind::kRead;
    req.created = now;
    req.reply_to = this;
    if (!l1_try_access(req)) {
      ++stats_.l1_rejections;
      mem_port_blocked = true;  // further memory issues would also bounce
      continue;
    }
    clear_ready(slot);
    ++lsq_occupancy_;
    --iw_occupancy_;
    ++issued;
    // Stores retire at acceptance (store-buffer semantics); loads wait for
    // their data.
    if (e.op.type == trace::OpType::kStore) {
      mark_done(e);
    } else {
      e.state = State::kMemWaiting;
    }
  }
}

void OooCore::do_dispatch(Cycle /*now*/) {
  std::uint32_t dispatched = 0;
  while (dispatched < cfg_.dispatch_width && !rob_.full() &&
         iw_occupancy_ < cfg_.iw_size && !trace_done_) {
    if (chunk_pos_ >= chunk_len_ && !refill_trace()) {
      trace_done_ = true;
      break;
    }
    // Built in its ring slot. The ROB is only ever pushed here and popped
    // at commit, so its tail sequence number is next_index_ by construction.
    const std::size_t slot = rob_.slot_of(next_index_);
    RobEntry& e = rob_.push_slot();
    e.op = trace_chunk_[chunk_pos_++];
    e.index = next_index_;
    e.done_at = kNoCycle;
    e.state = State::kDispatched;
    e.pending = 0;
    e.waiters = kNoWaiter;
    e.next_waiter = {kNoWaiter, kNoWaiter};
    add_dependence(e, slot, 0, e.op.dep_dist);
    add_dependence(e, slot, 1, e.op.dep_dist2);
    if (e.pending == 0) set_ready(slot);
    ++next_index_;
    ++iw_occupancy_;
    ++dispatched;
  }
}

bool OooCore::finished() const {
  return trace_done_ && rob_.empty() && lsq_occupancy_ == 0;
}

}  // namespace lpm::cpu
