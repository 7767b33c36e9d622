#pragma once
// Extension beyond the paper: the worst-case construction generalized to
// K-way merging (the paper attacks K = 2; its Sec. V invites extensions).
//
// Setting: in a K-way merge round, each warp merges wE elements drawn from
// K sorted runs staged contiguously in shared memory; thread t reads its E
// elements in value order.  Give each run a per-warp total that is a
// multiple of w (so every warp's run segments start at bank 0) and assign
// per-thread counts exactly as in Theorem 3's greedy: a thread whose run
// cursor sits on a column boundary takes a full aligned scan of E; filler
// threads burn the gaps (with K runs a filler may touch several runs — the
// thread's scan order across runs is free because the generator controls
// the values).  E columns spread across the K runs yield the same E^2
// aligned elements as the pairwise case, for every K <= E in the small-E
// regime.
//
// The block balances run totals by rotating the per-warp run roles across
// groups of K warps, which requires (b / w) % K == 0 and K | (wE) totals;
// see build_kway_warp_group.

#include <vector>

#include "core/assignment.hpp"
#include "dmm/access.hpp"
#include "sort/config.hpp"

namespace wcm::core {

/// One thread's assignment across K runs: counts[k] elements from run k,
/// scanned in `order` (a permutation of the runs it touches first-to-last).
struct KThreadAssign {
  std::vector<u32> counts;
  std::vector<u32> order;
};

/// One warp's K-way assignment.
struct KWarpAssignment {
  u32 w = 0;
  u32 E = 0;
  u32 ways = 0;
  std::vector<KThreadAssign> threads;  // size w

  [[nodiscard]] std::vector<std::size_t> totals() const;  // per run
  void validate() const;
};

/// Replay the warp's E lock-step iterations (run k staged at the cumulative
/// base of runs < k; every total is a multiple of w so bases are bank 0).
/// Window starts at bank `s`.
[[nodiscard]] WarpEval evaluate_kway_warp(const KWarpAssignment& wa, u32 s);

/// Build the K-way worst-case warp: column quota per run differing by at
/// most one (sum = E), Theorem 3's greedy over K cursors.  Requires the
/// small-E regime (gcd(w, E) = 1, 3 <= E < w/2) and 2 <= ways <= E.
/// Postcondition (self-checked): aligned == E^2.
[[nodiscard]] KWarpAssignment build_kway_warp(u32 w, u32 E, u32 ways);

/// A group of `ways` warps with rotated run roles, so the group's total per
/// run is exactly ways * wE / ways = wE elements ... i.e. balanced: every
/// run receives the same number of elements across the group.
[[nodiscard]] std::vector<KWarpAssignment> build_kway_warp_group(u32 w, u32 E,
                                                                 u32 ways);

/// Worst-case input permutation for the K-way merge sort
/// (sort::multiway_merge_sort with the same cfg and ways).  Requires
/// n = bE * ways^j (j >= 1), (b / w) % ways == 0, and the small-E regime.
/// `tile_shuffle_seed` as in AttackOptions.
[[nodiscard]] std::vector<dmm::word> kway_worst_case_input(
    std::size_t n, const sort::SortConfig& cfg, u32 ways,
    u64 tile_shuffle_seed = 0);

}  // namespace wcm::core
