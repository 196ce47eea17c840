// Fixed-capacity FIFO ring buffer used for ROB / LSQ / retry queues.
//
// Header-only and index-based: entries are addressed by stable logical
// positions so a core can hold "ROB slot" references while the buffer
// advances.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace lpm::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(round_up_pow2(capacity)),
        capacity_(capacity),
        mask_(slots_.size() - 1) {
    require(capacity >= 1, "RingBuffer: capacity must be >= 1");
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }

  /// Appends at the tail; returns the element's logical sequence number,
  /// which stays valid until the element is popped.
  std::size_t push(T value) {
    require(!full(), "RingBuffer::push on full buffer");
    const std::size_t seq = head_seq_ + size_;
    slots_[seq & mask_] = std::move(value);
    ++size_;
    return seq;
  }

  /// Appends one element at the tail and returns its slot for the caller to
  /// build in place, saving push()'s copy of a temporary. The slot still
  /// holds whatever element last lived there, so the caller overwrites every
  /// field. Its sequence number is head_seq() + size() - 1.
  T& push_slot() {
    require(!full(), "RingBuffer::push_slot on full buffer");
    T& slot = slots_[(head_seq_ + size_) & mask_];
    ++size_;
    return slot;
  }

  /// Appends up to `n` elements copied from `src`, bounded by free space;
  /// returns how many were appended. Batch counterpart of push() for
  /// producers that generate in chunks (e.g. TraceSource::fill).
  std::size_t push_bulk(const T* src, std::size_t n) {
    const std::size_t take = std::min(n, capacity_ - size_);
    for (std::size_t i = 0; i < take; ++i) {
      slots_[(head_seq_ + size_) & mask_] = src[i];
      ++size_;
    }
    return take;
  }

  /// Oldest element.
  [[nodiscard]] T& front() {
    require(!empty(), "RingBuffer::front on empty buffer");
    return slots_[head_seq_ & mask_];
  }
  [[nodiscard]] const T& front() const {
    require(!empty(), "RingBuffer::front on empty buffer");
    return slots_[head_seq_ & mask_];
  }

  /// Removes the oldest element.
  void pop() {
    require(!empty(), "RingBuffer::pop on empty buffer");
    ++head_seq_;
    --size_;
  }

  /// Access by logical sequence number returned from push().
  [[nodiscard]] T& at_seq(std::size_t seq) {
    require(contains_seq(seq), "RingBuffer::at_seq: stale sequence number");
    return slots_[seq & mask_];
  }
  [[nodiscard]] const T& at_seq(std::size_t seq) const {
    require(contains_seq(seq), "RingBuffer::at_seq: stale sequence number");
    return slots_[seq & mask_];
  }

  /// i-th element from the front (0 == front).
  [[nodiscard]] T& at_offset(std::size_t i) {
    require(i < size_, "RingBuffer::at_offset: out of range");
    return slots_[(head_seq_ + i) & mask_];
  }
  [[nodiscard]] const T& at_offset(std::size_t i) const {
    require(i < size_, "RingBuffer::at_offset: out of range");
    return slots_[(head_seq_ + i) & mask_];
  }

  /// Backing slots: capacity() rounded up to a power of two. Sequence
  /// number `seq` lives in slot slot_of(seq), so a client can keep side
  /// tables (e.g. bitmaps) indexed by slot.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t slot_of(std::size_t seq) const { return seq & mask_; }
  /// The element in backing slot `slot`, unchecked: the caller knows the
  /// slot holds a live element.
  [[nodiscard]] T& at_slot(std::size_t slot) { return slots_[slot]; }

  [[nodiscard]] bool contains_seq(std::size_t seq) const {
    return seq >= head_seq_ && seq < head_seq_ + size_;
  }
  [[nodiscard]] std::size_t head_seq() const { return head_seq_; }

  void clear() {
    head_seq_ += size_;
    size_ = 0;
  }

 private:
  // Backing storage is rounded up to a power of two so every slot index is
  // a mask instead of an integer division (every ROB and response-queue
  // access computes one). capacity_ still enforces the caller's logical
  // bound.
  [[nodiscard]] static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t mask_;
  std::size_t head_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lpm::util
