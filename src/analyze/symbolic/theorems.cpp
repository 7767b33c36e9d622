#include "analyze/symbolic/theorems.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "analyze/symbolic/domain.hpp"
#include "core/assignment.hpp"
#include "core/numbers.hpp"
#include "core/warp_construction.hpp"
#include "sort/describe.hpp"
#include "util/check.hpp"

namespace wcm::analyze::symbolic {

namespace {

/// Static aligned-element recount: pure residue arithmetic over the
/// assignment's prefix sums, no access replay.  Layout as evaluate_warp:
/// A at [0, total_a), B at ceil(total_a / w) * w.
u64 static_aligned(const core::WarpAssignment& wa, u32 s) {
  const u32 w = wa.w;
  const std::size_t base_b = ceil_div(wa.total_a(), std::size_t{wa.w}) * wa.w;
  u64 aligned = 0;
  std::size_t prefix_a = 0;
  std::size_t prefix_b = 0;
  for (const core::ThreadAssign& t : wa.threads) {
    // The thread's A (B) elements are one contiguous run; scanning order
    // only fixes the iteration j0 at which the run starts.
    const std::size_t a_start = prefix_a;
    const std::size_t b_start = base_b + prefix_b;
    const u32 a_j0 = t.a_first ? 0 : t.from_b;
    const u32 b_j0 = t.a_first ? t.from_a : 0;
    if (t.from_a > 0 && a_start % w == (s + a_j0) % w) {
      aligned += t.from_a;
    }
    if (t.from_b > 0 && b_start % w == (s + b_j0) % w) {
      aligned += t.from_b;
    }
    prefix_a += t.from_a;
    prefix_b += t.from_b;
  }
  return aligned;
}

}  // namespace

u64 theorem_site_bound(u32 w, u32 E) {
  const gpusim::ir::KernelDesc desc =
      sort::describe_pairwise(w, /*b=*/2 * w, /*pad=*/0);
  Valuation valuation(desc.symbols.size(), 0);
  for (std::size_t i = 0; i < desc.symbols.size(); ++i) {
    valuation[i] = desc.symbols[i].lo;
  }
  const int e_index = desc.find_symbol("E");
  WCM_EXPECTS(e_index >= 0, "pairwise describer must declare E");
  valuation[static_cast<std::size_t>(e_index)] = E;
  for (const gpusim::ir::StepGroup& g : desc.groups) {
    if (g.theorem_site) {
      return window_bound_at(desc, g, valuation);
    }
  }
  WCM_EXPECTS(false, "pairwise describer must mark a theorem site");
  return 0;
}

TheoremInstance check_theorem(u32 w, u32 E) {
  const core::ERegime regime = core::classify_e(w, E);
  WCM_EXPECTS(regime == core::ERegime::small || regime == core::ERegime::large,
              "theorem instance needs co-prime 3 <= E < w");
  TheoremInstance t;
  t.w = w;
  t.E = E;
  t.small = regime == core::ERegime::small;

  // Closed form, re-derived inline (Theorem 3: E^2; Theorem 9 with
  // r = w - E: (E^2 + E + 2Er - r^2 - r) / 2).
  const u64 e64 = E;
  const u64 r = w - E;
  t.aligned_closed =
      t.small ? e64 * e64
              : (e64 * e64 + e64 + 2 * e64 * r - r * r - r) / 2;

  const u32 s = core::alignment_window_start(w, E);
  const core::WarpAssignment wa = core::worst_case_warp(w, E);
  t.aligned_static = static_aligned(wa, s);
  const core::WarpEval eval = core::evaluate_warp(wa, s);
  t.aligned_dynamic = eval.aligned;
  t.max_step_degree = eval.step_degree.empty()
                          ? 0
                          : *std::max_element(eval.step_degree.begin(),
                                              eval.step_degree.end());
  t.step_bound = theorem_site_bound(w, E);

  std::ostringstream note;
  if (core::aligned_worst_case(w, E) != t.aligned_closed) {
    note << "closed form mismatch vs core::aligned_worst_case="
         << core::aligned_worst_case(w, E) << "; ";
  }
  if (t.aligned_static != t.aligned_closed) {
    note << "static recount " << t.aligned_static << " != closed form "
         << t.aligned_closed << "; ";
  }
  if (t.aligned_dynamic != t.aligned_closed) {
    note << "replayed count " << t.aligned_dynamic << " != closed form "
         << t.aligned_closed << "; ";
  }
  if (t.small && t.aligned_closed != e64 * e64) {
    note << "Theorem 3 beta_2 != E; ";
  }
  if (t.max_step_degree > t.step_bound) {
    note << "replayed step degree " << t.max_step_degree
         << " exceeds symbolic bound " << t.step_bound << "; ";
  }
  t.note = note.str();
  t.ok = t.note.empty();
  return t;
}

std::vector<TheoremInstance> check_theorems(u32 w, u32 e_min, u32 e_max) {
  WCM_EXPECTS(w >= 8 && is_pow2(w), "warp width must be a power of two >= 8");
  std::vector<TheoremInstance> out;
  const u32 lo = std::max<u32>(3, e_min);
  const u32 hi = std::min<u32>(e_max, w - 1);
  for (u32 e = lo; e <= hi; ++e) {
    if (std::gcd(w, e) != 1) {
      continue;  // w is a power of two: skips exactly the even E
    }
    out.push_back(check_theorem(w, e));
  }
  return out;
}

}  // namespace wcm::analyze::symbolic
