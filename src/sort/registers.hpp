#pragma once
// The base case's per-thread register sort: an odd-even transposition
// network on E keys (Satish, Harris & Garland 2009).  A sorting *network*
// (data-independent compare-exchange schedule) is required because all
// threads of a warp execute it in lock-step; it touches no shared memory.

#include <span>

#include "dmm/access.hpp"
#include "util/math.hpp"

namespace wcm::sort {

using dmm::word;

/// Sort `keys` in place with the odd-even transposition network and return
/// the number of compare-exchange operations performed (data-independent:
/// depends only on keys.size()).
std::size_t odd_even_sort(std::span<word> keys);

/// Number of compare-exchanges the network performs on n keys: n rounds of
/// alternating odd/even pairs, i.e. n * (n - 1) / 2 comparators in total.
[[nodiscard]] std::size_t odd_even_comparator_count(std::size_t n) noexcept;

}  // namespace wcm::sort
