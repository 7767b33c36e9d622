#pragma once
// Theorem 3: for gcd(w, E) = 1 and E < w/2, a warp assignment aligning all
// E^2 possible elements (E full columns, one per aligned thread) to the
// first E memory banks (s = 0).

#include <string>

#include "core/assignment.hpp"

namespace wcm::core {

/// Build the L-warp assignment of Theorem 3 (A gets (E+1)/2 columns, B gets
/// (E-1)/2).  Postcondition (self-checked): evaluate_warp(result, 0)
/// .aligned == E^2.  R warps use result.mirrored().
[[nodiscard]] WarpAssignment build_small_e(u32 w, u32 E);

/// The three alignment strategies named in the proof of Lemma 2.  All
/// achieve the full E^2 aligned elements but produce *different* warp
/// assignments (and hence different members of the worst-case permutation
/// family, paper Sec. V item 2):
///   front_to_back — columns claimed walking the threads forward (the
///                   default construction above; window starts at bank 0),
///   back_to_front — the mirror walk from the last thread backward
///                   (window starts at bank w - E),
///   outside_in    — columns claimed alternately from both ends (window
///                   starts at bank 0).
enum class AlignmentStrategy { front_to_back, back_to_front, outside_in };

[[nodiscard]] const char* to_string(AlignmentStrategy s) noexcept;
/// Inverse of to_string; throws wcm::parse_error naming the valid set.
[[nodiscard]] AlignmentStrategy parse_alignment_strategy(
    const std::string& name);

/// A constructed warp plus the bank where its alignment window starts.
struct SmallEConstruction {
  WarpAssignment warp;
  u32 window_start = 0;
};

/// Build Theorem 3's assignment with the chosen alignment strategy.
/// Postcondition (self-checked): evaluate_warp(warp, window_start).aligned
/// == E^2 for every strategy.
[[nodiscard]] SmallEConstruction build_small_e_variant(u32 w, u32 E,
                                                       AlignmentStrategy s);

}  // namespace wcm::core
