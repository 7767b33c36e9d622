#pragma once
// GPU Merge Path primitives (Green, McColl & Bader 2012): the diagonal
// binary search ("co-rank") that lets t threads merge two sorted lists
// independently.  Host-side reference implementations with explicit step
// counting — the step counts feed the partition-stage cost in the GPU
// simulator.
//
// Stability convention used throughout the repository: A has priority, i.e.
// an element of A precedes an equal element of B.  All worst-case inputs are
// permutations (distinct keys), but the convention matters for tests.

#include <cstddef>
#include <span>

#include "dmm/access.hpp"

namespace wcm::mergepath {

using dmm::word;

/// Split point of the merge of A and B at output rank `diag`: the first
/// `diag` merged elements are exactly A[0..i) and B[0..j) with i + j = diag.
struct CoRank {
  std::size_t i = 0;
  std::size_t j = 0;
};

struct CoRankResult {
  CoRank split;
  std::size_t search_steps = 0;  ///< binary-search iterations performed
};

/// Diagonal binary search for the stable (A-priority) merge path.
/// Requires a and b sorted ascending and diag <= |a| + |b|.
[[nodiscard]] CoRankResult merge_path(std::span<const word> a,
                                      std::span<const word> b,
                                      std::size_t diag);

}  // namespace wcm::mergepath
