#include "mem/mshr.hpp"

#include <bit>

#include "util/error.hpp"

namespace lpm::mem {

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t max_targets)
    : entries_(entries), max_targets_(max_targets), free_(entries) {
  util::require(entries >= 1, "MshrFile: need at least one entry");
  util::require(max_targets >= 1, "MshrFile: need at least one target per entry");
  for (auto& e : entries_) {
    e.targets.reserve(max_targets);
  }
  free_mask_.assign((entries + 63) / 64, 0);
  for (std::uint32_t i = 0; i < entries; ++i) {
    free_mask_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  // At most half full, so every probe sequence reaches an empty slot.
  const std::size_t slots = std::bit_ceil(std::size_t{2} * entries);
  index_.assign(slots, IndexSlot{});
  index_shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(slots));
}

bool MshrFile::can_add_target(std::uint32_t idx) const {
  const auto& e = entries_.at(idx);
  return e.valid && e.targets.size() < max_targets_;
}

std::uint32_t MshrFile::allocate(Addr block_addr, const MshrTarget& target, Cycle now) {
  const std::uint32_t i = allocate_prefetch(block_addr, now, target.core);
  entries_[i].is_prefetch = false;
  entries_[i].targets.push_back(target);
  return i;
}

std::uint32_t MshrFile::allocate_prefetch(Addr block_addr, Cycle now, CoreId core) {
  util::require(can_allocate(), "MshrFile::allocate without free entry");
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home_slot(block_addr);
  for (; index_[s].entry != kEmptySlot; s = (s + 1) & mask) {
    util::require(index_[s].block != block_addr,
                  "MshrFile::allocate: duplicate entry for block");
  }
  std::size_t w = 0;
  while (free_mask_[w] == 0) ++w;  // can_allocate(): some word has a free bit
  const auto i = static_cast<std::uint32_t>(
      w * 64 + static_cast<std::size_t>(std::countr_zero(free_mask_[w])));
  free_mask_[w] &= free_mask_[w] - 1;  // clear the lowest set bit
  index_[s] = IndexSlot{block_addr, i};

  MshrEntry& e = entries_[i];
  e.valid = true;
  e.issued = false;
  e.is_prefetch = true;
  e.core = core;
  e.fill_id = kNoRequest;
  e.block_addr = block_addr;
  e.allocated = now;
  e.targets.clear();
  --free_;
  ++mutations_;
  return i;
}

void MshrFile::add_target(std::uint32_t idx, const MshrTarget& target) {
  util::require(can_add_target(idx), "MshrFile::add_target on full/invalid entry");
  entries_.at(idx).targets.push_back(target);
  ++mutations_;
}

std::vector<MshrTarget> MshrFile::release(std::uint32_t idx) {
  std::vector<MshrTarget> out;
  release_into(idx, out);
  return out;
}

void MshrFile::release_into(std::uint32_t idx, std::vector<MshrTarget>& out) {
  auto& e = entries_.at(idx);
  util::require(e.valid, "MshrFile::release on invalid entry");

  // Backward-shift deletion: walk the probe cluster after the hole and pull
  // back every slot whose home lies at or before the hole, so lookups never
  // meet a gap inside their own probe sequence (no tombstones).
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home_slot(e.block_addr);
  while (index_[hole].entry != idx) hole = (hole + 1) & mask;
  for (std::size_t s = (hole + 1) & mask; index_[s].entry != kEmptySlot;
       s = (s + 1) & mask) {
    const std::size_t home = home_slot(index_[s].block);
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      index_[hole] = index_[s];
      hole = s;
    }
  }
  index_[hole] = IndexSlot{};
  free_mask_[idx / 64] |= std::uint64_t{1} << (idx % 64);

  out.clear();
  out.swap(e.targets);  // entry inherits out's old storage
  e.block_addr = 0;
  e.valid = false;
  e.issued = false;
  e.is_prefetch = false;
  e.core = kNoCore;
  e.fill_id = kNoRequest;
  e.allocated = 0;
  e.targets.reserve(max_targets_);
  ++free_;
  ++mutations_;
}

MshrEntry& MshrFile::entry(std::uint32_t idx) { return entries_.at(idx); }
const MshrEntry& MshrFile::entry(std::uint32_t idx) const { return entries_.at(idx); }

std::uint32_t MshrFile::in_use_by(CoreId core) const {
  std::uint32_t n = 0;
  for (const auto& e : entries_) {
    if (e.valid && e.core == core) ++n;
  }
  return n;
}

std::uint32_t MshrFile::outstanding_targets() const {
  std::uint32_t n = 0;
  for (const auto& e : entries_) {
    if (e.valid) n += static_cast<std::uint32_t>(e.targets.size());
  }
  return n;
}

std::vector<std::uint32_t> MshrFile::valid_entries() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = next_valid(0); i < capacity(); i = next_valid(i + 1)) {
    out.push_back(i);
  }
  return out;
}

}  // namespace lpm::mem
