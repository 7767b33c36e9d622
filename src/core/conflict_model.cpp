#include "core/conflict_model.hpp"

#include "core/warp_construction.hpp"
#include "util/check.hpp"

namespace wcm::core {

double predicted_beta2(u32 w, u32 E) {
  return static_cast<double>(aligned_worst_case(w, E)) / E;
}

double exact_beta2_prediction(u32 w, u32 E) {
  const u32 s = alignment_window_start(w, E);
  const auto l = evaluate_warp(worst_case_warp(w, E, WarpSide::L), s);
  const auto r = evaluate_warp(worst_case_warp(w, E, WarpSide::R), s);
  return static_cast<double>(l.totals.serialization +
                             r.totals.serialization) /
         (2.0 * E);
}

u64 predicted_total_conflicts(std::size_t n, const sort::SortConfig& cfg,
                              std::size_t attacked_rounds) {
  cfg.validate();
  const std::size_t warp_span = static_cast<std::size_t>(cfg.w) * cfg.E;
  WCM_EXPECTS(n % warp_span == 0, "n must be a multiple of wE");
  const u64 warps_per_round = n / warp_span;
  return warps_per_round * attacked_rounds *
         aligned_worst_case(cfg.w, cfg.E);
}

u64 effective_parallelism(u32 w, u32 E) {
  WCM_EXPECTS(E > 0, "E must be positive");
  return ceil_div(w, E);
}

}  // namespace wcm::core
