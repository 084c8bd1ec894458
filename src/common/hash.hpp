// Stable 64-bit hashing for experiment identity.
//
// The parallel runner identifies each task and derives its RNG seed from a
// hash of (workload, scenario, config).  That hash must be stable
// across processes, platforms and standard libraries -- std::hash makes no
// such promise -- so we use FNV-1a over an explicitly serialized byte
// stream.  Doubles are hashed by bit pattern (the configs only ever hold
// finite literals, so -0.0/NaN aliasing is not a concern in practice).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace coolpim {

/// Incremental FNV-1a 64-bit hasher with typed field feeds.
class HashStream {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  constexpr HashStream& bytes(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= static_cast<std::uint8_t>(data[i]);
      state_ *= kPrime;
    }
    return *this;
  }

  constexpr HashStream& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xffU;
      state_ *= kPrime;
    }
    return *this;
  }

  template <typename T>
  constexpr HashStream& add(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return u64(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      return u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_floating_point_v<T>) {
      return u64(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else {
      static_assert(std::is_integral_v<T>);
      return u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
  }

  HashStream& add(std::string_view s) {
    u64(s.size());  // length prefix: "ab"+"c" must differ from "a"+"bc"
    return bytes(s.data(), s.size());
  }

  [[nodiscard]] constexpr std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_{kOffsetBasis};
};

/// Mix a 64-bit hash into a well-distributed RNG seed (SplitMix64 finalizer).
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace coolpim
