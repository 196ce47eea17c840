// Cache replacement policies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace lpm::mem {

enum class ReplacementPolicy : std::uint8_t {
  kLru,     ///< least recently used (exact, per-line timestamps)
  kFifo,    ///< first in, first out (insertion order)
  kRandom,  ///< uniform random victim
  kPlru,    ///< tree pseudo-LRU (power-of-two associativity; else falls back to LRU)
  kSrrip,   ///< static RRIP (2-bit re-reference prediction): scan-resistant
            ///< "selective replacement" (paper SVII future work)
};

[[nodiscard]] const char* to_string(ReplacementPolicy p);

/// Parses "lru" / "fifo" / "random" / "plru" (throws util::LpmError).
[[nodiscard]] ReplacementPolicy replacement_from_string(const std::string& s);

/// The replacement state of a whole cache: one flat table, line `way` of
/// set `set` at `set * ways + way`. It stores only what the policy's
/// victim() reads:
///   LRU, and PLRU at non-power-of-two ways: a u64 last-use stamp per line;
///   FIFO:   a u64 fill stamp per line;
///   PLRU:   ways - 1 tree bits per set, one byte each;
///   SRRIP:  a 2-bit re-reference prediction per line, one byte each;
///   Random: nothing.
/// The policy only sees set and way indices and touch/fill events, never
/// tags.
class ReplacementTable {
 public:
  /// An empty table that holds no lines (every touch/fill throws).
  ReplacementTable() = default;
  ReplacementTable(ReplacementPolicy policy, std::uint64_t sets, std::uint32_t ways);

  /// Records a use of `way` in `set` (hit or fill).
  void touch(std::uint64_t set, std::uint32_t way, std::uint64_t tick);

  /// Records that `way` in `set` was (re)filled.
  void fill(std::uint64_t set, std::uint32_t way, std::uint64_t tick);

  /// Chooses the victim way of `set` among valid ways (the cache prefers
  /// invalid ways before asking). SRRIP ages the set in place while it
  /// searches, so this is not const.
  [[nodiscard]] std::uint32_t victim(std::uint64_t set, util::Rng& rng);

  /// Bytes of per-line and per-set state the table stores.
  [[nodiscard]] std::size_t bytes() const {
    return stamps_.size() * sizeof(std::uint64_t) + marks_.size();
  }

 private:
  /// What the table stores, decided once from the policy and ways.
  enum class Layout : std::uint8_t {
    kLastUse,    // stamps_: last touch (LRU, PLRU fallback)
    kFillStamp,  // stamps_: last fill (FIFO)
    kTree,       // marks_: ways - 1 PLRU node bits per set
    kRrpv,       // marks_: one SRRIP prediction per line
    kNone,       // Random
  };

  Layout layout_ = Layout::kNone;
  std::uint32_t ways_ = 0;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint8_t> marks_;

  void plru_touch(std::uint64_t set, std::uint32_t way);
  [[nodiscard]] std::uint32_t plru_victim(std::uint64_t set) const;
  [[nodiscard]] std::uint32_t srrip_victim(std::uint64_t set);
  [[nodiscard]] std::uint32_t oldest(std::uint64_t set) const;
};

}  // namespace lpm::mem
