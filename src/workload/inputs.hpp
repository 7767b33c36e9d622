#pragma once
// Input workload generators used across the evaluation: seeded random
// permutations (the paper's baseline), sorted / reversed / nearly-sorted
// inputs, and the adversarial inputs of core/generator.hpp behind one
// uniform interface.

#include <string>
#include <vector>

#include "core/generator.hpp"

namespace wcm::workload {

using dmm::word;

enum class InputKind {
  random,         ///< seeded uniform random permutation
  sorted,         ///< 0..n-1
  reversed,       ///< n-1..0
  nearly_sorted,  ///< sorted with a few random swaps
  worst_case,     ///< the paper's constructed adversarial permutation
};

[[nodiscard]] const char* to_string(InputKind kind) noexcept;
/// Inverse of to_string().  Throws wcm::parse_error naming the valid set.
[[nodiscard]] InputKind parse_input_kind(const std::string& name);

/// Random permutation of {0..n-1} (Fisher–Yates over Xoshiro256).
[[nodiscard]] std::vector<word> random_permutation(std::size_t n, u64 seed);

[[nodiscard]] std::vector<word> sorted_input(std::size_t n);
[[nodiscard]] std::vector<word> reversed_input(std::size_t n);

/// Sorted input with `swaps` random transpositions.
[[nodiscard]] std::vector<word> nearly_sorted_input(std::size_t n,
                                                    std::size_t swaps,
                                                    u64 seed);

/// Uniform dispatcher: build input of `kind` for a sort configuration (the
/// configuration only matters for worst_case).
[[nodiscard]] std::vector<word> make_input(InputKind kind, std::size_t n,
                                           const sort::SortConfig& cfg,
                                           u64 seed = 1);

/// True iff v is a permutation of {0..n-1}.
[[nodiscard]] bool is_permutation_of_iota(const std::vector<word>& v);

}  // namespace wcm::workload
