#pragma once
// Host reference sorts used to validate the simulator and as the timing
// baseline in the microbenchmarks: std::sort and a bottom-up pairwise merge
// sort that mirrors the simulated algorithm's merge tree exactly.

#include <span>
#include <vector>

#include "dmm/access.hpp"

namespace wcm::sort {

using dmm::word;

/// std::sort wrapper (returns a sorted copy).
[[nodiscard]] std::vector<word> std_sort(std::span<const word> input);

/// Bottom-up pairwise merge sort with base-case width `base`: sorts
/// base-sized chunks, then merges adjacent runs — the same merge tree the
/// simulated GPU sort executes, so intermediate states can be compared.
[[nodiscard]] std::vector<word> cpu_pairwise_merge_sort(
    std::span<const word> input, std::size_t base);

/// The state of the CPU pairwise merge sort after the base case and
/// `rounds` merge rounds (for cross-checking the simulator's intermediate
/// buffers).
[[nodiscard]] std::vector<word> cpu_pairwise_partial(
    std::span<const word> input, std::size_t base, std::size_t rounds);

}  // namespace wcm::sort
