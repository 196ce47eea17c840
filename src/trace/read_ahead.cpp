#include "trace/read_ahead.hpp"

#include <algorithm>

#include "trace/helper_thread.hpp"
#include "util/error.hpp"

namespace lpm::trace {

namespace {

const TraceSourcePtr& checked(const TraceSourcePtr& inner) {
  util::require(inner != nullptr, "ReadAhead: inner trace source must exist");
  return inner;
}

}  // namespace

ReadAhead::ReadAhead(TraceSourcePtr inner)
    : inner_(std::move(inner)),
      name_(checked(inner_)->name()),
      ring_(kBlocks * kBlockOps),
      waits_(obs::MetricsRegistry::global().counter("trace.readahead.waits")) {}

ReadAhead::~ReadAhead() { stop(); }

std::size_t ReadAhead::fill(MicroOp* dst, std::size_t n) {
  std::size_t produced = 0;
  while (produced < n) {
    if (pos_ == cur_len_) {
      if (!next_block()) break;
      continue;
    }
    const std::size_t take = std::min(n - produced, cur_len_ - pos_);
    std::copy_n(ring_.data() + cur_ * kBlockOps + pos_, take, dst + produced);
    pos_ += take;
    produced += take;
  }
  return produced;
}

bool ReadAhead::next_block() {
  if (!helper_.joinable()) {
    helper_ = start_helper_thread([this] { produce(); });
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (holding_) {
    holding_ = false;
    --published_;
    cur_ = (cur_ + 1) % kBlocks;
    // A sleeping helper is woken only once kRefill blocks are free: each
    // wake-up is a cross-CPU interrupt, so it is paid once per kRefill
    // blocks, not once per block.
    if (helper_asleep_ && published_ <= kBlocks - kRefill) {
      helper_asleep_ = false;
      lock.unlock();
      space_cv_.notify_one();
      lock.lock();
    }
  }
  if (published_ == 0 && !done_) {
    waits_.inc();
    consumer_asleep_ = true;
    data_cv_.wait(lock, [this] { return published_ > 0; });
  }
  if (published_ == 0) {  // every block of a finished stream is consumed
    if (error_) std::rethrow_exception(error_);
    return false;
  }
  holding_ = true;
  cur_len_ = len_[cur_];
  pos_ = 0;
  return true;
}

void ReadAhead::produce() {
  for (std::size_t tail = 0;; tail = (tail + 1) % kBlocks) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!stop_ && published_ == kBlocks) {
        helper_asleep_ = true;
        space_cv_.wait(lock, [this] { return stop_ || !helper_asleep_; });
      }
      if (stop_) return;
    }
    // Block `tail` is unpublished, so only this thread touches it.
    std::size_t got = 0;
    std::exception_ptr error;
    try {
      got = inner_->fill(ring_.data() + tail * kBlockOps, kBlockOps);
    } catch (...) {
      error = std::current_exception();
    }
    const bool last = error != nullptr || got < kBlockOps;
    bool wake_consumer = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      len_[tail] = error != nullptr ? 0 : got;
      ++published_;
      done_ = last;
      error_ = error;
      wake_consumer = consumer_asleep_;
      consumer_asleep_ = false;
    }
    if (wake_consumer) data_cv_.notify_one();
    if (last) return;
  }
}

void ReadAhead::stop() {
  if (!helper_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  space_cv_.notify_one();
  helper_.join();
}

void ReadAhead::reset() {
  stop();
  inner_->reset();
  published_ = 0;
  done_ = false;
  helper_asleep_ = false;
  consumer_asleep_ = false;
  stop_ = false;
  error_ = nullptr;
  cur_ = 0;
  pos_ = 0;
  cur_len_ = 0;
  holding_ = false;
}

}  // namespace lpm::trace
