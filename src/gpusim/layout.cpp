#include "gpusim/layout.hpp"

#include "util/check.hpp"

namespace wcm::gpusim {

void SharedLayout::validate() const {
  WCM_CHECK_CONFIG(w >= 1, "warp size must be positive");
  // Only the xor permutation needs a power of two: `col ^ (row % w)` is
  // bijective on [0, w) iff w is a power of two, while the linear and
  // rotation layouts are plain mod-w arithmetic for any width (the w = 3
  // describer cross-check runs non-power-of-two warps through here).
  WCM_CHECK_CONFIG(kind != LayoutKind::xor_swizzle || is_pow2(w),
                   "the xor layout needs a power-of-two warp size");
}

const char* to_string(LayoutKind kind) noexcept {
  switch (kind) {
    case LayoutKind::xor_swizzle:
      return "xor";
    case LayoutKind::rotation:
      return "rotation";
    case LayoutKind::linear:
      break;
  }
  return "linear";
}

LayoutKind parse_layout_kind(const std::string& name) {
  if (name == "linear") {
    return LayoutKind::linear;
  }
  if (name == "xor") {
    return LayoutKind::xor_swizzle;
  }
  if (name == "rotation") {
    return LayoutKind::rotation;
  }
  throw parse_error("unknown layout '" + name +
                    "' (valid: linear, xor, rotation)");
}

}  // namespace wcm::gpusim
