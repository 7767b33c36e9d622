#pragma once
// Inversion counting.  Karsin et al. (2018) observed that the merge sort's
// bank conflicts grow with the number of inversions in the input; this
// metric lets the benches quantify that correlation and place the
// constructed worst-case input on the inversion spectrum.

#include <span>

#include "dmm/access.hpp"
#include "util/math.hpp"

namespace wcm::workload {

/// Number of pairs (i, j) with i < j and v[i] > v[j].  O(n log n)
/// merge-based counting; at most n(n-1)/2.
[[nodiscard]] u64 count_inversions(std::span<const dmm::word> v);

/// Inversions as a fraction of the maximum n(n-1)/2 (0 = sorted,
/// 1 = reversed, ~0.5 = random).
[[nodiscard]] double inversion_fraction(std::span<const dmm::word> v);

}  // namespace wcm::workload
