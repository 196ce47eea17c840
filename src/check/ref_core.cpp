#include "check/ref_core.hpp"

#include "util/error.hpp"

namespace lpm::check {

namespace {
constexpr std::uint64_t kSeqBits = 48;  // request id = id_space tag | seq
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
}  // namespace

RefCore::RefCore(cpu::CoreConfig cfg, trace::TraceSource* source,
                 mem::MemoryLevel* l1, std::uint64_t id_space)
    : cfg_(std::move(cfg)), source_(source), l1_(l1), id_base_(id_space << kSeqBits) {
  util::require(source_ != nullptr && l1_ != nullptr,
                "RefCore: trace source and L1 must exist");
}

void RefCore::on_response(const mem::MemResponse& rsp) { responses_.push_back(rsp); }

bool RefCore::finished() const {
  return trace_done_ && rob_.empty() && in_flight_ == 0;
}

bool RefCore::producer_done(std::uint64_t seq, std::uint32_t dist) const {
  if (dist == 0 || dist > seq) return true;
  const std::uint64_t producer = seq - dist;
  if (producer < head_seq_) return true;  // retired
  return rob_[producer - head_seq_].state == State::kDone;
}

void RefCore::tick(Cycle now) {
  if (finished()) return;

  // Responses: a load waiting on its data is done; a store's response
  // arrives after it already retired and only frees its LSQ slot.
  while (!responses_.empty()) {
    const mem::MemResponse rsp = responses_.front();
    responses_.pop_front();
    util::require((rsp.id & ~kSeqMask) == id_base_, "RefCore: foreign response");
    util::require(in_flight_ > 0, "RefCore: response with nothing in flight");
    --in_flight_;
    const std::uint64_t seq = rsp.id & kSeqMask;
    if (seq >= head_seq_ && seq < head_seq_ + rob_.size()) {
      Entry& e = rob_[seq - head_seq_];
      if (e.state == State::kMemWaiting) e.state = State::kDone;
    }
  }

  // Complete: ALU ops whose latency has elapsed.
  for (Entry& e : rob_) {
    if (e.state == State::kExecuting && e.done_at <= now) e.state = State::kDone;
  }

  // Commit: in order, up to commit_width done entries from the head.
  std::uint64_t committed = 0;
  while (committed < cfg_.commit_width && !rob_.empty() &&
         rob_.front().state == State::kDone) {
    const Entry& e = rob_.front();
    ++stats_.instructions;
    if (e.op.type == trace::OpType::kLoad) {
      ++stats_.mem_ops;
      ++stats_.loads;
    } else if (e.op.type == trace::OpType::kStore) {
      ++stats_.mem_ops;
      ++stats_.stores;
    }
    rob_.pop_front();
    ++head_seq_;
    ++committed;
  }

  // Issue: rescan the whole ROB oldest first. Readiness is tested against
  // the producers' states at the moment the entry is reached.
  std::uint32_t issued = 0;
  bool port_blocked = false;
  for (std::size_t i = 0; i < rob_.size() && issued < cfg_.issue_width; ++i) {
    Entry& e = rob_[i];
    if (e.state != State::kWaiting) continue;
    if (!producer_done(e.seq, e.op.dep_dist) ||
        !producer_done(e.seq, e.op.dep_dist2)) {
      continue;
    }
    if (e.op.type == trace::OpType::kAlu) {
      e.state = State::kExecuting;
      e.done_at = now + e.op.exec_latency;
      --waiting_;
      ++issued;
      continue;
    }
    if (port_blocked || in_flight_ >= cfg_.lsq_size) continue;
    mem::MemRequest req;
    req.id = id_base_ | e.seq;
    req.core = cfg_.id;
    req.addr = e.op.addr;
    req.kind = e.op.type == trace::OpType::kStore ? mem::AccessKind::kWrite
                                                  : mem::AccessKind::kRead;
    req.created = now;
    req.reply_to = this;
    if (!l1_->try_access(req)) {
      ++stats_.l1_rejections;
      port_blocked = true;
      continue;
    }
    ++in_flight_;
    --waiting_;
    ++issued;
    // A store retires at L1 acceptance; a load waits for its data.
    e.state = e.op.type == trace::OpType::kStore ? State::kDone
                                                 : State::kMemWaiting;
  }

  // Dispatch: append trace ops while ROB, IW and dispatch width allow.
  std::uint32_t dispatched = 0;
  while (dispatched < cfg_.dispatch_width && rob_.size() < cfg_.rob_size &&
         waiting_ < cfg_.iw_size && !trace_done_) {
    Entry e;
    if (!source_->next(e.op)) {
      trace_done_ = true;
      break;
    }
    e.seq = next_seq_++;
    rob_.push_back(e);
    ++waiting_;
    ++dispatched;
  }

  // Cycle accounting: a data-stall cycle has memory in flight, no commit,
  // and an unfinished memory op at the ROB head; every other memory-active
  // cycle is overlap.
  ++stats_.cycles;
  bool head_blocked = false;
  if (committed == 0 && !rob_.empty()) {
    const Entry& head = rob_.front();
    head_blocked = head.op.type != trace::OpType::kAlu && head.state != State::kDone;
    if (head_blocked) ++stats_.head_mem_stall_cycles;
  }
  if (committed > 0) ++stats_.commit_cycles;
  if (in_flight_ > 0) {
    ++stats_.mem_active_cycles;
    if (head_blocked) {
      ++stats_.data_stall_cycles;
    } else {
      ++stats_.overlap_cycles;
    }
  }
}

}  // namespace lpm::check
