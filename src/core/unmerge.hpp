#pragma once
// Inverse merging ("unmerge"): turn warp assignments into a boolean mask
// over a merge round's output ranks that says which list each rank came
// from.  Applying the masks top-down from the sorted array through the
// merge tree yields the worst-case input permutation (see generator.hpp).

#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "dmm/access.hpp"
#include "sort/config.hpp"

namespace wcm::core {

/// Per-rank origin mask of one thread block's bE output ranks under the
/// attack: the first b/(2w) warps use the L assignment, the rest the R
/// assignment; within a warp, thread t covers ranks [tE, (t+1)E) and, per
/// its scan order, the A-origin ranks are the first from_a (a_first) or the
/// last from_a (!a_first) of its range.  Exactly bE/2 entries are true
/// (from A).
[[nodiscard]] std::vector<bool> attack_block_mask(const sort::SortConfig& cfg,
                                                  const WarpAssignment& l,
                                                  const WarpAssignment& r);

/// Convenience: the attack mask for one pair of runs whose merged output
/// has `pair_out` elements (a multiple of cfg.tile()): the block mask tiled
/// across the pair's blocks.
[[nodiscard]] std::vector<bool> attack_pair_mask(std::size_t pair_out,
                                                 const sort::SortConfig& cfg,
                                                 const WarpAssignment& l,
                                                 const WarpAssignment& r);

/// Neutral mask: first half of the ranks from A (i.e. the pair's runs are
/// fully ordered, A entirely below B).  Used for rounds the attack skips.
[[nodiscard]] std::vector<bool> neutral_pair_mask(std::size_t pair_out);

/// Split `values` (ascending) into the A-run and B-run dictated by `mask`
/// (A = values at true ranks, order preserved; both outputs are sorted).
struct UnmergeSplit {
  std::vector<dmm::word> a;
  std::vector<dmm::word> b;
};
[[nodiscard]] UnmergeSplit unmerge(std::span<const dmm::word> values,
                                   const std::vector<bool>& mask);

}  // namespace wcm::core
