#include "mem/replacement.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lpm::mem {

const char* to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kFifo: return "fifo";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kPlru: return "plru";
    case ReplacementPolicy::kSrrip: return "srrip";
  }
  return "?";
}

ReplacementPolicy replacement_from_string(const std::string& s) {
  if (s == "lru") return ReplacementPolicy::kLru;
  if (s == "fifo") return ReplacementPolicy::kFifo;
  if (s == "random") return ReplacementPolicy::kRandom;
  if (s == "plru") return ReplacementPolicy::kPlru;
  if (s == "srrip") return ReplacementPolicy::kSrrip;
  throw util::LpmError("unknown replacement policy: " + s);
}

ReplacementTable::ReplacementTable(ReplacementPolicy policy, std::uint64_t sets,
                                   std::uint32_t ways)
    : ways_(ways) {
  util::require(ways >= 1, "ReplacementTable: ways must be >= 1");
  const std::uint64_t lines = sets * ways;
  switch (policy) {
    case ReplacementPolicy::kRandom:
      layout_ = Layout::kNone;
      break;
    case ReplacementPolicy::kFifo:
      layout_ = Layout::kFillStamp;
      stamps_.assign(lines, 0);
      break;
    case ReplacementPolicy::kSrrip:
      layout_ = Layout::kRrpv;
      marks_.assign(lines, 3);  // empty ways look like distant re-reference
      break;
    case ReplacementPolicy::kPlru:
      // A one-way tree has no nodes and always names way 0, as LRU would.
      if ((ways & (ways - 1)) == 0) {
        layout_ = Layout::kTree;
        marks_.assign(sets * (ways - 1), 0);
        break;
      }
      [[fallthrough]];
    case ReplacementPolicy::kLru:
      layout_ = Layout::kLastUse;
      stamps_.assign(lines, 0);
      break;
  }
}

void ReplacementTable::touch(std::uint64_t set, std::uint32_t way,
                             std::uint64_t tick) {
  util::require(way < ways_, "ReplacementTable::touch: bad way");
  switch (layout_) {
    case Layout::kLastUse:
      stamps_[set * ways_ + way] = tick;
      break;
    case Layout::kTree:
      plru_touch(set, way);
      break;
    case Layout::kRrpv:
      marks_[set * ways_ + way] = 0;  // re-referenced: predict near reuse
      break;
    case Layout::kFillStamp:  // FIFO ignores uses
    case Layout::kNone:
      break;
  }
}

void ReplacementTable::fill(std::uint64_t set, std::uint32_t way,
                            std::uint64_t tick) {
  touch(set, way, tick);  // checks the way
  if (layout_ == Layout::kFillStamp) stamps_[set * ways_ + way] = tick;
  if (layout_ == Layout::kRrpv) {
    marks_[set * ways_ + way] = 2;  // inserted with long re-reference
                                    // prediction: a line must prove reuse
                                    // before it outranks resident ones
  }
}

void ReplacementTable::plru_touch(std::uint64_t set, std::uint32_t way) {
  // Walk root->leaf; set each node bit to point *away* from this way.
  const std::uint64_t root = set * (ways_ - 1);
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways_;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool right = way >= mid;
    marks_[root + node] = right ? 0 : 1;  // bit points to the cold side
    node = 2 * node + (right ? 2 : 1);
    if (right) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
}

std::uint32_t ReplacementTable::plru_victim(std::uint64_t set) const {
  const std::uint64_t root = set * (ways_ - 1);
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways_;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    // plru_touch() stores 1 when the cold half is the right one.
    const bool right = marks_[root + node] == 1;
    node = 2 * node + (right ? 2 : 1);
    if (right) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint32_t ReplacementTable::srrip_victim(std::uint64_t set) {
  // Find a distant-re-reference way; age the set until one appears.
  std::uint8_t* rrpv = marks_.data() + set * ways_;
  for (;;) {
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (rrpv[w] >= 3) return w;
    }
    for (std::uint32_t w = 0; w < ways_; ++w) ++rrpv[w];
  }
}

std::uint32_t ReplacementTable::oldest(std::uint64_t set) const {
  // First minimum: ties break toward the lowest way.
  const auto first = stamps_.begin() + static_cast<std::ptrdiff_t>(set * ways_);
  const auto it = std::min_element(first, first + ways_);
  return static_cast<std::uint32_t>(it - first);
}

std::uint32_t ReplacementTable::victim(std::uint64_t set, util::Rng& rng) {
  switch (layout_) {
    case Layout::kNone:
      return static_cast<std::uint32_t>(rng.next_below(ways_));
    case Layout::kTree:
      return plru_victim(set);
    case Layout::kRrpv:
      return srrip_victim(set);
    case Layout::kLastUse:
    case Layout::kFillStamp:
      return oldest(set);
  }
  return 0;
}

}  // namespace lpm::mem
