#pragma once
// Theorem cross-check layer: instantiates the symbolic prover's derived
// bounds at the paper's worst-case constructions and asserts they reproduce
// the closed forms — Theorem 3's beta_2 = E (E^2 aligned elements for
// co-prime E < w/2) and Theorem 9's (E^2 + E + 2Er - r^2 - r) / 2 count
// for w/2 < E < w, r = w - E.
//
// Each instance triangulates one (w, E) three independent ways:
//   closed  — the core/numbers.cpp closed form (re-derived inline here so a
//             typo in numbers.cpp cannot self-certify);
//   static  — a residue-class recount over the construction that never
//             replays an access: a thread's run of n contiguous elements
//             starting at bank c, read first at iteration j0, is aligned
//             all-or-nothing iff c ≡ s + j0 (mod w);
//   dynamic — core/assignment.cpp's evaluate_warp DMM replay.
// plus the symbolic side: the replayed per-step worst-bank degree must
// never exceed the merge-read window bound the prover derived for the
// kernel's theorem site.  Any disagreement is a conflict-model bug and is
// surfaced as a theorem-divergence finding.

#include <string>
#include <vector>

#include "util/math.hpp"

namespace wcm::analyze::symbolic {

/// One machine-checked instance of Theorem 3 (small E) or Theorem 9
/// (large E) at a concrete co-prime (w, E).
struct TheoremInstance {
  u32 w = 0;
  u32 E = 0;
  bool small = false;       ///< Theorem 3 regime (E < w/2); else Theorem 9
  u64 aligned_closed = 0;   ///< closed form re-derived inline
  u64 aligned_static = 0;   ///< independent residue-class recount
  u64 aligned_dynamic = 0;  ///< evaluate_warp DMM replay
  u64 step_bound = 0;       ///< symbolic merge-read bound, instantiated
  u64 max_step_degree = 0;  ///< replayed per-step worst-bank degree
  bool ok = false;
  std::string note;  ///< non-empty explanation when !ok
};

/// The symbolic merge-read bound at one concrete E (any E, co-prime or
/// not): the pairwise engine's theorem-site window group, instantiated.
[[nodiscard]] u64 theorem_site_bound(u32 w, u32 E);

/// Cross-check one co-prime (w, E) pair; contract-checks the regime.
[[nodiscard]] TheoremInstance check_theorem(u32 w, u32 E);

/// Sweep every co-prime odd E with max(3, e_min) <= E <= min(e_max, w-1).
[[nodiscard]] std::vector<TheoremInstance> check_theorems(u32 w, u32 e_min,
                                                          u32 e_max);

}  // namespace wcm::analyze::symbolic
