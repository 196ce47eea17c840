#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace lpm::util {
namespace {

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  rb.pop();
  EXPECT_EQ(rb.front(), 2);
  rb.pop();
  rb.pop();
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, FullAndOverflowThrows) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  EXPECT_TRUE(rb.full());
  EXPECT_THROW(rb.push(3), LpmError);
}

TEST(RingBuffer, PopEmptyThrows) {
  RingBuffer<int> rb(2);
  EXPECT_THROW(rb.pop(), LpmError);
  EXPECT_THROW(rb.front(), LpmError);
}

TEST(RingBuffer, PushSlotAppendsInPlaceAtTheTailSequence) {
  RingBuffer<int> rb(2);
  rb.push_slot() = 7;
  EXPECT_EQ(rb.at_seq(0), 7);
  rb.pop();
  // The next slot is addressed by sequence head_seq() + size() - 1.
  int& slot = rb.push_slot();
  slot = 8;
  EXPECT_EQ(rb.at_seq(rb.head_seq() + rb.size() - 1), 8);
  rb.push_slot() = 9;
  EXPECT_TRUE(rb.full());
  EXPECT_THROW(rb.push_slot(), LpmError);
  EXPECT_EQ(rb.front(), 8);
}

TEST(RingBuffer, SequenceNumbersStableAcrossWrap) {
  RingBuffer<int> rb(3);
  const auto s0 = rb.push(10);
  const auto s1 = rb.push(11);
  rb.pop();  // drop 10
  const auto s2 = rb.push(12);
  const auto s3 = rb.push(13);  // wraps storage
  EXPECT_EQ(rb.at_seq(s1), 11);
  EXPECT_EQ(rb.at_seq(s2), 12);
  EXPECT_EQ(rb.at_seq(s3), 13);
  EXPECT_FALSE(rb.contains_seq(s0));
  EXPECT_THROW(rb.at_seq(s0), LpmError);
}

TEST(RingBuffer, SequenceNumbersMonotonic) {
  RingBuffer<int> rb(2);
  const auto a = rb.push(1);
  rb.pop();
  const auto b = rb.push(2);
  EXPECT_EQ(b, a + 1);
}

TEST(RingBuffer, AtOffsetWalksFromFront) {
  RingBuffer<int> rb(4);
  rb.push(5);
  rb.push(6);
  rb.push(7);
  rb.pop();
  EXPECT_EQ(rb.at_offset(0), 6);
  EXPECT_EQ(rb.at_offset(1), 7);
  EXPECT_THROW(rb.at_offset(2), LpmError);
}

TEST(RingBuffer, ClearAdvancesSequences) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  const auto s = rb.push(3);
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(rb.at_seq(s), 3);
}

TEST(RingBuffer, LongChurnKeepsConsistency) {
  RingBuffer<std::size_t> rb(7);
  std::size_t next_val = 0;
  std::size_t expect_front = 0;
  for (int round = 0; round < 1000; ++round) {
    while (!rb.full()) rb.push(next_val++);
    // Pop a varying number.
    const std::size_t pops = 1 + (round % 7);
    for (std::size_t i = 0; i < pops && !rb.empty(); ++i) {
      ASSERT_EQ(rb.front(), expect_front);
      rb.pop();
      ++expect_front;
    }
  }
}

TEST(RingBuffer, SlotsAreAPowerOfTwoAndFollowTheSequenceNumber) {
  RingBuffer<int> rb(5);
  EXPECT_EQ(rb.capacity(), 5u);
  ASSERT_EQ(rb.slot_count(), 8u);
  for (int i = 0; i < 20; ++i) {
    if (rb.full()) rb.pop();
    const std::size_t seq = rb.push(i);
    EXPECT_EQ(rb.slot_of(seq), seq % 8);
    EXPECT_EQ(rb.at_slot(rb.slot_of(seq)), i);
    EXPECT_EQ(&rb.at_slot(rb.slot_of(seq)), &rb.at_seq(seq));
  }
}

TEST(RingBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(RingBuffer<int>(0), LpmError);
}

}  // namespace
}  // namespace lpm::util
