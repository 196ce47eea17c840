// Stable 64-bit fingerprinting of the simulator's configuration structs.
//
// A fingerprint is the cache key of the experiment engine: two jobs with the
// same (MachineConfig, WorkloadProfile) fingerprint are the same simulation
// and may share a memoized result. The hash therefore covers *every* field
// of every config struct — over-inclusion only costs a spurious re-run,
// while omission would silently alias distinct experiments. Each struct
// hash starts from a versioned type tag so values are stable within a
// build but never collide across struct kinds. Fingerprints are not a
// cross-build serialization format: a cached result keyed by another
// build's fingerprint simply fails to match and re-runs, which is the
// safe direction.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace lpm::cpu {
struct CoreConfig;
}
namespace lpm::mem {
struct CacheConfig;
struct DramConfig;
}
namespace lpm::sim {
struct MachineConfig;
}
namespace lpm::trace {
struct WorkloadProfile;
}

namespace lpm::util {

/// Incremental 64-bit block hasher. Each 64-bit operand is first diffused
/// by the splitmix64 finalizer — a bijective permutation independent of the
/// running hash, so it pipelines across consecutive fields — then folded
/// into an FNV-1a-shaped xor-and-multiply chain. That keeps the serial
/// dependency chain at one multiply per field; the old byte-at-a-time
/// FNV-1a paid eight, which made fingerprinting the dominant cost of an
/// engine submission. Integers are mixed by value (so the value, not the
/// in-memory width, determines the hash); doubles by bit pattern; strings
/// length-prefixed in little-endian 64-bit blocks.
class Fingerprint {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;

  Fingerprint& mix_byte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * kPrime;
    return *this;
  }

  Fingerprint& mix_u64(std::uint64_t v) {
    // splitmix64 finalizer (Steele et al.): bijective, so distinct
    // operands stay distinct going into the chain.
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ull;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebull;
    v ^= v >> 31;
    hash_ = (hash_ ^ v) * kPrime;
    return *this;
  }

  template <typename T>
    requires(std::is_integral_v<T> || std::is_enum_v<T>)
  Fingerprint& mix(T v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }

  Fingerprint& mix(double v) { return mix_u64(std::bit_cast<std::uint64_t>(v)); }

  Fingerprint& mix(std::string_view s) {
    mix_u64(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) mix_u64(load_le(s.data() + i, 8));
    if (i < s.size()) mix_u64(load_le(s.data() + i, s.size() - i));
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  /// Little-endian pack of up to 8 bytes, zero-padded; the length prefix
  /// in mix() keeps padded tails from aliasing longer strings.
  [[nodiscard]] static std::uint64_t load_le(const char* p, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < n; ++b) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[b]))
           << (8 * b);
    }
    return v;
  }

  std::uint64_t hash_ = kOffsetBasis;
};

/// Field-complete hashes of the configuration structs (see header comment).
[[nodiscard]] std::uint64_t fingerprint(const cpu::CoreConfig& cfg);
[[nodiscard]] std::uint64_t fingerprint(const mem::CacheConfig& cfg);
[[nodiscard]] std::uint64_t fingerprint(const mem::DramConfig& cfg);
[[nodiscard]] std::uint64_t fingerprint(const sim::MachineConfig& cfg);
[[nodiscard]] std::uint64_t fingerprint(const trace::WorkloadProfile& wl);

/// Hex rendering for logs / result-sink records.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);

}  // namespace lpm::util
