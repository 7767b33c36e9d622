#include "sort/config.hpp"

#include <sstream>

#include "sort/launch.hpp"
#include "util/check.hpp"

namespace wcm::sort {

std::size_t SortConfig::shared_bytes() const noexcept {
  return block_shared_bytes(tile(), w, padding);
}

void SortConfig::validate() const {
  WCM_CHECK_CONFIG(E >= 1, "E must be positive");
  // Any warp width >= 1 is a valid machine shape: the parametric-w passes
  // and the describer cross-check exercise non-power-of-two warps (w=3).
  WCM_CHECK_CONFIG(w >= 1, "warp size must be positive");
  WCM_CHECK_CONFIG(is_pow2(b),
                   "block size must be a power of two (paper Sec. II-A)");
  WCM_CHECK_CONFIG(b >= 2 * w, "block must contain at least two warps");
}

std::string SortConfig::to_string() const {
  std::ostringstream os;
  os << "E=" << E << ",b=" << b << ",w=" << w;
  return os.str();
}

SortConfig params_15_512() { return SortConfig{15, 512, 32}; }
SortConfig params_17_256() { return SortConfig{17, 256, 32}; }
SortConfig params_15_128() { return SortConfig{15, 128, 32}; }

}  // namespace wcm::sort
