// Streaming 64-bit content checksum for on-disk trace files (xxh64-style
// mixing: per-word rounds plus a final avalanche). Header-only and
// allocation-free so the trace writer can hash records as they stream out
// and the reader (Lpm2Trace) can hash them as they stream back in, without
// either side ever holding the whole file.
//
// Properties the trace layer relies on:
//   - Deterministic across platforms: input bytes are consumed as a little-
//     endian byte stream regardless of host endianness.
//   - `digest()` never returns 0, so 0 can serve as an "unset checksum"
//     sentinel in headers and workload profiles.
//   - `digest()` is non-destructive: it folds any buffered tail into a copy
//     of the state, so callers may checkpoint mid-stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lpm::util {

class Checksum64 {
 public:
  explicit Checksum64(std::uint64_t seed = 0) : state_(seed * kPrime2 + kPrime5) {}

  void update(const void* data, std::size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total_ += size;
    // Drain a previously buffered partial word first.
    if (tail_len_ != 0) {
      while (tail_len_ < 8 && size != 0) {
        tail_[tail_len_++] = *p++;
        --size;
      }
      if (tail_len_ == 8) {
        mix_word(load_le64(tail_));
        tail_len_ = 0;
      }
    }
    while (size >= 8) {
      mix_word(load_le64(p));
      p += 8;
      size -= 8;
    }
    while (size != 0) {
      tail_[tail_len_++] = *p++;
      --size;
    }
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = state_;
    for (unsigned i = 0; i < tail_len_; ++i) {
      h = rotl(h ^ (static_cast<std::uint64_t>(tail_[i]) * kPrime5), 11) * kPrime1;
    }
    h ^= total_;
    // Final avalanche (splitmix64-style) so nearby streams land far apart.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    // Reserve 0 as the "no checksum" sentinel.
    return h == 0 ? kPrime3 : h;
  }

 private:
  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
  static constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

  static std::uint64_t rotl(std::uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

  static std::uint64_t load_le64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  void mix_word(std::uint64_t w) {
    w *= kPrime2;
    w = rotl(w, 31);
    w *= kPrime1;
    state_ = rotl(state_ ^ w, 27) * kPrime1 + kPrime3;
  }

  std::uint64_t state_;
  std::uint64_t total_ = 0;
  unsigned char tail_[8] = {};
  unsigned tail_len_ = 0;
};

}  // namespace lpm::util
