#pragma once
// Closed-form predictions derived from Theorems 3 and 9, used to cross-check
// the measured conflict counts of the simulated sort (tests) and to annotate
// the benches.  All counts refer to the lock-step merge reads of attacked
// rounds; the simulator's measured numbers additionally contain the
// (constant, small) incidental conflicts of un-attacked traffic, so tests
// compare with >= on totals and == on the per-warp construction itself.

#include "core/numbers.hpp"
#include "sort/config.hpp"

namespace wcm::core {

/// Predicted beta_2 (mean merge-read serialization) of a fully attacked
/// warp-round: one serialized access per aligned element across E steps,
/// plus one wavefront per step -> 1 + (aligned - E) / E ... simplified to
/// aligned / E, which equals E exactly in the small-E regime.  A *lower
/// bound* in the large-E regime, where misaligned window elements add
/// serialization beyond the aligned count.
[[nodiscard]] double predicted_beta2(u32 w, u32 E);

/// Exact beta_2 of an attacked round: the constructions are deterministic,
/// so the evaluator's serialization count (averaged over the L and R warp,
/// which a block uses in equal numbers) predicts the simulated sort's
/// per-round beta_2 to machine precision.
[[nodiscard]] double exact_beta2_prediction(u32 w, u32 E);

/// Lower bound on the paper-style "total bank conflicts" (conflicting
/// accesses) the constructed input inflicts on the whole sort: per attacked
/// round, every warp serializes its aligned elements.
[[nodiscard]] u64 predicted_total_conflicts(std::size_t n,
                                            const sort::SortConfig& cfg,
                                            std::size_t attacked_rounds);

/// Effective parallelism of an attacked warp: ceil(w / E) (the paper's
/// headline loss-of-parallelism figure).
[[nodiscard]] u64 effective_parallelism(u32 w, u32 E);

}  // namespace wcm::core
