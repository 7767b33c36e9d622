#pragma once
// FNV-1a, the one hash every on-disk format and cache key in the project
// chains: the seals of the checksummed-file codec (util/framed.hpp, shared
// by WCMI, WCMC, WCMS and WCMJ), WCMC and WCMS cache keys, campaign
// fingerprints, and the symbolic prover's report digests
// (analyze/symbolic).  Keeping a single definition pins the digest values
// — tests/test_util_hash.cpp asserts the reference vectors, so any
// accidental change to the constants breaks loudly instead of silently
// invalidating caches and checksums.

#include <cstddef>
#include <string>
#include <string_view>

#include "util/math.hpp"

namespace wcm {

/// Offset basis for a fresh FNV-1a chain (64-bit variant).
inline constexpr u64 fnv_offset_basis = 14695981039346656037ULL;

/// The 64-bit FNV prime.
inline constexpr u64 fnv_prime = 1099511628211ULL;

/// FNV-1a over a byte string, seeded with `h` (chain calls to mix several
/// fields).
[[nodiscard]] inline u64 fnv1a(u64 h, const void* data,
                               std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= fnv_prime;
  }
  return h;
}

/// Chain a string's bytes (no terminator) into an FNV-1a state.
[[nodiscard]] inline u64 fnv1a(u64 h, std::string_view text) noexcept {
  return fnv1a(h, text.data(), text.size());
}

/// Hash one string from a fresh chain.
[[nodiscard]] inline u64 fnv1a(std::string_view text) noexcept {
  return fnv1a(fnv_offset_basis, text);
}

/// A digest as 16 zero-padded lowercase hex digits, the form the prove,
/// verify and certify reports print after "fnv1a:".
[[nodiscard]] inline std::string hex16(u64 v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = out.size(); i-- > 0; v >>= 4) {
    out[i] = digits[v & 0xF];
  }
  return out;
}

}  // namespace wcm
