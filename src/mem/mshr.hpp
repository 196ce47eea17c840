// Miss Status Holding Registers: the structure that makes a cache
// non-blocking. Each entry tracks one in-flight block fill plus the demand
// accesses (targets) coalesced onto it. Entry and target counts are the
// "MSHR numbers" knob of Table I.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/request.hpp"
#include "util/types.hpp"

namespace lpm::mem {

struct MshrTarget {
  RequestId id = kNoRequest;
  CoreId core = kNoCore;
  AccessKind kind = AccessKind::kRead;
  ResponseSink* reply_to = nullptr;
  Cycle miss_start = 0;  ///< when the access became an outstanding miss
};

struct MshrEntry {
  Addr block_addr = 0;        ///< block-aligned address being filled
  bool valid = false;
  bool issued = false;        ///< fill request accepted by the lower level
  bool is_prefetch = false;   ///< allocated by the prefetcher (may have no targets)
  CoreId core = kNoCore;      ///< originating core (prefetch attribution)
  RequestId fill_id = kNoRequest;  ///< id of the fill request sent downstream
  Cycle allocated = 0;
  std::vector<MshrTarget> targets;
};

/// Fixed-size MSHR file with block coalescing.
///
/// A block is found through an open-addressed block -> entry index (linear
/// probing, at most half full, backward-shift deletion), and entries are
/// allocated from a free bitmask. Allocation always hands out the lowest
/// free index: a cache sends its pending fills downstream in index order,
/// so the index an entry gets decides its issue order and every result
/// downstream of it.
class MshrFile {
 public:
  MshrFile(std::uint32_t entries, std::uint32_t max_targets);

  /// Index of the entry currently filling `block_addr`, if any.
  [[nodiscard]] std::optional<std::uint32_t> find(Addr block_addr) const;

  /// True when a new entry can be allocated.
  [[nodiscard]] bool can_allocate() const { return free_ > 0; }

  /// True when entry `idx` can take one more coalesced target.
  [[nodiscard]] bool can_add_target(std::uint32_t idx) const;

  /// Allocates an entry for `block_addr` with one initial target. Requires
  /// can_allocate().
  std::uint32_t allocate(Addr block_addr, const MshrTarget& target, Cycle now);

  /// Allocates a targetless prefetch entry. Requires can_allocate().
  std::uint32_t allocate_prefetch(Addr block_addr, Cycle now,
                                  CoreId core = kNoCore);

  /// Adds a coalesced target. Requires can_add_target(idx).
  void add_target(std::uint32_t idx, const MshrTarget& target);

  /// Releases entry `idx`, returning its targets for completion.
  std::vector<MshrTarget> release(std::uint32_t idx);

  /// Allocation-free variant: swaps entry `idx`'s targets into `out`
  /// (clearing `out`'s previous contents) and frees the entry. The entry
  /// inherits `out`'s old storage, so in steady state no release or
  /// subsequent coalescing allocates.
  void release_into(std::uint32_t idx, std::vector<MshrTarget>& out);

  /// Entry access. Callers may update `issued` and `fill_id`; the block,
  /// validity and targets belong to the file (the index keys on them).
  [[nodiscard]] MshrEntry& entry(std::uint32_t idx);
  [[nodiscard]] const MshrEntry& entry(std::uint32_t idx) const;

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] std::uint32_t in_use() const { return capacity() - free_; }
  [[nodiscard]] std::uint32_t max_targets() const { return max_targets_; }

  /// Bumped by every allocation, coalesced target and release: equal
  /// values mean an unchanged set of blocks, targets and owners, so a
  /// lookup that failed once fails again (Cache's MSHR-wait gate).
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }

  /// Total demand accesses currently waiting across all entries.
  [[nodiscard]] std::uint32_t outstanding_targets() const;

  /// Entries currently held by `core` (kNoCore-owned entries are uncounted).
  /// Backs the memory-parallelism-partition feature (per-core MSHR quotas).
  [[nodiscard]] std::uint32_t in_use_by(CoreId core) const;

  /// The lowest valid entry index >= `from`, or capacity() when there is
  /// none: `for (i = next_valid(0); i < capacity(); i = next_valid(i + 1))`
  /// visits the valid entries in index order.
  [[nodiscard]] std::uint32_t next_valid(std::uint32_t from) const;

  /// Indices of valid entries. Allocates the returned vector —
  /// test/diagnostic use only; hot paths iterate with next_valid().
  [[nodiscard]] std::vector<std::uint32_t> valid_entries() const;

 private:
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};
  struct IndexSlot {
    Addr block = 0;
    std::uint32_t entry = kEmptySlot;
  };

  [[nodiscard]] std::size_t home_slot(Addr block_addr) const {
    // Fibonacci hashing: block addresses share their low (offset) bits; the
    // multiply spreads the rest into the top bits the shift keeps.
    return static_cast<std::size_t>((block_addr * 0x9e3779b97f4a7c15ULL) >>
                                    index_shift_);
  }

  std::vector<MshrEntry> entries_;
  std::vector<std::uint64_t> free_mask_;  // bit i set = entry i free
  std::vector<IndexSlot> index_;  // power-of-two size >= 2 * entries
  std::uint32_t index_shift_;     // 64 - log2(index_.size())
  std::uint32_t max_targets_;
  std::uint32_t free_;
  std::uint64_t mutations_ = 0;
};

// The two lookups on the cache's per-cycle path, inline.

inline std::optional<std::uint32_t> MshrFile::find(Addr block_addr) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = home_slot(block_addr);; s = (s + 1) & mask) {
    const IndexSlot& slot = index_[s];
    if (slot.entry == kEmptySlot) return std::nullopt;
    if (slot.block == block_addr) return slot.entry;
  }
}

inline std::uint32_t MshrFile::next_valid(std::uint32_t from) const {
  const std::uint32_t cap = capacity();
  if (from >= cap) return cap;
  std::size_t w = from / 64;
  std::uint64_t valid = ~free_mask_[w] & (~std::uint64_t{0} << (from % 64));
  while (valid == 0) {
    if (++w == free_mask_.size()) return cap;
    valid = ~free_mask_[w];
  }
  const auto i = static_cast<std::uint32_t>(
      w * 64 + static_cast<std::size_t>(std::countr_zero(valid)));
  return i < cap ? i : cap;  // bits past the last entry are never free
}

}  // namespace lpm::mem
