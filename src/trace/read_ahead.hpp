// Read-ahead front end: overlaps an inner trace source's generation with
// the consumer that simulates it.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/trace_source.hpp"

namespace lpm::trace {

/// TraceSource decorator whose one helper thread runs the inner source's
/// fill() into a bounded ring of kBlocks blocks of kBlockOps ops, while the
/// consumer copies out of the oldest published block. The consumer sees the
/// inner stream byte for byte (the fill() contract); the helper stays at
/// most kBlocks blocks ahead, so the buffer is a fixed 256 KB.
///
/// - The helper starts on the first fill()/next(), so a source that is
///   never read costs no thread. It is kept off the consumer's CPU.
/// - A helper that fills the ring sleeps until kRefill blocks are free, so
///   the consumer pays one cross-thread wake-up per kRefill blocks.
/// - reset() and the destructor stop the helper and join it. The helper
///   checks for a stop between blocks, so the join waits for at most one
///   inner fill() of kBlockOps ops.
/// - An exception thrown by the inner fill() ends the stream there: the
///   consumer receives every block published before it, then the same
///   exception (same type) from every later fill()/next() until reset().
/// - Only the consumer calls the public methods; name() is read once at
///   construction, so it never races the helper.
///
/// Use it only where one consumer thread simulates one synthetic stream
/// (single-core cycle runs): there generation is on the critical path and
/// the helper is the run's one extra thread.
class ReadAhead final : public TraceSource {
 public:
  static constexpr std::size_t kBlockOps = 1024;
  static constexpr std::size_t kBlocks = 8;
  /// Free blocks that wake a helper sleeping on a full ring.
  static constexpr std::size_t kRefill = kBlocks / 2;

  explicit ReadAhead(TraceSourcePtr inner);
  ~ReadAhead() override;
  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;

  bool next(MicroOp& op) override { return fill(&op, 1) == 1; }
  std::size_t fill(MicroOp* dst, std::size_t n) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  /// Helper thread body: fills blocks in ring order until the inner source
  /// ends, throws, or stop() is called.
  void produce();
  /// Releases the consumer's current block and takes the next published
  /// one, waiting if the ring is empty. Returns false at end of stream;
  /// rethrows the inner source's exception once its blocks are consumed.
  bool next_block();
  /// Stops and joins the helper (no-op when it is not running).
  void stop();

  TraceSourcePtr inner_;
  const std::string name_;
  std::vector<MicroOp> ring_;  ///< kBlocks * kBlockOps ops

  // Shared between consumer and helper, guarded by mu_.
  std::mutex mu_;
  std::condition_variable data_cv_;   ///< a block was published
  std::condition_variable space_cv_;  ///< kRefill blocks are free, or stop
  std::array<std::size_t, kBlocks> len_{};  ///< ops in each published block
  std::size_t published_ = 0;  ///< blocks published and not yet released
  bool done_ = false;          ///< the helper published its last block
  bool stop_ = false;
  bool helper_asleep_ = false;    ///< helper waits for kRefill free blocks
  bool consumer_asleep_ = false;  ///< consumer waits for a block
  std::exception_ptr error_;

  // Consumer-only state.
  std::thread helper_;
  std::size_t cur_ = 0;       ///< ring index of the block being read
  std::size_t pos_ = 0;       ///< next op within it
  std::size_t cur_len_ = 0;   ///< its op count (0 before the first block)
  bool holding_ = false;      ///< cur_ is a published block still unreleased
  obs::MetricsRegistry::Counter waits_;
};

}  // namespace lpm::trace
