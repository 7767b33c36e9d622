#pragma once
// The GPU pairwise merge sort (paper Sec. II-A), simulated end to end:
// block sort of bE-element tiles, then ceil(log2(N / bE)) global pairwise
// merge rounds.  In each global round, pairs of sorted runs are merged by
// one thread block per bE output elements: the block finds its quantile via
// mutual binary search in global memory, stages it in shared memory, runs
// one merge-path round (b threads, E elements each — the access pattern the
// worst-case construction attacks), and stores the tile back coalesced.
//
// This models both the Thrust and the Modern GPU implementation; they run
// the same algorithm with different (E, b) tunings and constant factors
// (see MergeSortLibrary).

#include <span>
#include <string>
#include <vector>

#include "sort/report.hpp"

namespace wcm::sort {

/// Library flavor: same algorithm, different tuning defaults and
/// calibration constants.
enum class MergeSortLibrary { thrust, mgpu };

[[nodiscard]] const char* to_string(MergeSortLibrary lib) noexcept;

/// The library's name in flags and campaign specs: "thrust" or "mgpu".
[[nodiscard]] const char* library_name(MergeSortLibrary lib) noexcept;
/// Inverse of library_name().  Throws wcm::parse_error naming the valid
/// set.
[[nodiscard]] MergeSortLibrary parse_library(const std::string& name);

/// Calibration constants for a library (documented in EXPERIMENTS.md).
[[nodiscard]] gpusim::Calibration library_calibration(MergeSortLibrary lib);

/// Simulate the full sort of `input` (size must be a positive multiple of
/// cfg.tile()).  Returns the report; `output`, when non-null, receives the
/// sorted keys.
[[nodiscard]] SortReport pairwise_merge_sort(
    std::span<const word> input, const SortConfig& cfg,
    const gpusim::Device& dev, MergeSortLibrary lib = MergeSortLibrary::thrust,
    std::vector<word>* output = nullptr);

/// Re-derive modeled times for another device / library from an existing
/// report's event counters (the counters are device-independent, so one
/// simulation can be priced for several targets).
[[nodiscard]] SortReport recost(const SortReport& report,
                                const gpusim::Device& dev,
                                MergeSortLibrary lib);

}  // namespace wcm::sort
