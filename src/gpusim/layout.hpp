#pragma once
// Shared-memory address layouts: the defense-side counterpart of the
// worst-case constructions.  A layout maps logical word addresses to
// physical (banked) addresses; the attack engineering in core/ assumes the
// linear layout, and the three alternatives below are the classic
// mitigations the defense literature builds bank-conflict-free algorithms
// on (Afshani & Sitchinava; Sitchinava & Weichert):
//
//   linear      physical = logical + pad * floor(logical / w): the identity
//               map, optionally Dotsenko-padded (pad unused words after
//               every w logical words).  Bank = (c + pad*r) mod w for
//               logical address r*w + c.
//   xor_swizzle row r stores logical column c at physical column
//               c XOR (r mod w): a per-row bank permutation that needs no
//               extra memory (w must be a power of two).  Bank =
//               (c ^ (r mod w)) + pad*r mod w (pad composes but is
//               unnecessary).
//   rotation    row r stores logical column c at physical column
//               (c + r) mod w: the cyclic-shift permutation, also
//               memory-free and valid for any w.
//
// All three keep each row's w logical words in w distinct banks, and map
// a logical *column* (the stride-w access the worst-case inputs weaponize)
// to w distinct banks for xor/rotation (any w) and for linear when
// gcd(pad, w) = 1.  Values are always addressed logically; only conflict
// accounting sees physical addresses.

#include <bit>
#include <cstddef>
#include <string>

#include "util/math.hpp"

namespace wcm::gpusim {

enum class LayoutKind : unsigned char {
  linear,       ///< identity columns (optionally padded)
  xor_swizzle,  ///< column c of row r at c ^ (r mod w); w must be 2^k
  rotation,     ///< column c of row r at (c + r) mod w
};

/// Logical->physical shared-address map for a w-bank memory.  pad extra
/// words are reserved after every row of w logical words; for the permuted
/// kinds each row occupies a full physical row of w + pad words even when
/// the tile's last row is partial.
struct SharedLayout {
  u32 w = 32;
  u32 pad = 0;
  LayoutKind kind = LayoutKind::linear;

  /// Throws wcm::config_error unless w >= 1 and, for xor, w is a power of
  /// two.  SharedMemory and the trace replay check it before pricing.
  void validate() const;

  /// x mod w.  Every priced lane passes through here, so a power-of-two
  /// w (every real warp) takes a mask; any other w keeps the division.
  [[nodiscard]] u32 mod_w(std::size_t x) const noexcept {
    return static_cast<u32>((w & (w - 1)) == 0 ? x & (w - 1) : x % w);
  }

  /// Physical column of logical column `col` (< w) within row `row`.
  [[nodiscard]] u32 permute(u32 col, std::size_t row) const noexcept {
    switch (kind) {
      case LayoutKind::xor_swizzle:
        return col ^ mod_w(row);
      case LayoutKind::rotation: {
        const u32 shifted = col + mod_w(row);  // < 2w
        return shifted >= w ? shifted - w : shifted;
      }
      case LayoutKind::linear:
        break;
    }
    return col;
  }

  /// Physical address of a logical one: a shift for the row when w is a
  /// power of two, a division otherwise.
  [[nodiscard]] std::size_t physical(std::size_t logical) const noexcept {
    const std::size_t row = (w & (w - 1)) == 0
                                ? logical >> std::countr_zero(w)
                                : logical / w;
    return row * (w + pad) + permute(mod_w(logical), row);
  }

  /// Bank holding a logical address: physical mod w.
  [[nodiscard]] u32 bank(std::size_t logical) const noexcept {
    return mod_w(physical(logical));
  }
};

[[nodiscard]] const char* to_string(LayoutKind kind) noexcept;

/// Parse "linear" | "xor" | "rotation"; throws wcm::parse_error otherwise.
[[nodiscard]] LayoutKind parse_layout_kind(const std::string& name);

}  // namespace wcm::gpusim
