#include "core/small_e.hpp"

#include <algorithm>

#include "core/numbers.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace wcm::core {

namespace {

// Shared greedy machinery.  A "cursor" tracks how many elements of a list
// one end has consumed; column alignment is a congruence on the cursor:
//  * walking forward, a full-column scan starts at bank 0 when the cursor
//    is a multiple of w;
//  * walking backward, the scan [total - cursor - E, total - cursor) starts
//    at bank 0 when cursor + E is a multiple of w (list totals are
//    multiples of w).

struct EndState {
  std::size_t pos_a = 0;  // elements consumed from this end
  std::size_t pos_b = 0;
};

struct Budget {
  std::size_t rem_a = 0;
  std::size_t rem_b = 0;

  void take(bool from_a, std::size_t count) {
    auto& rem = from_a ? rem_a : rem_b;
    WCM_EXPECTS(count <= rem, "overdrew a list");
    rem -= count;
  }
};

/// Gap to the next aligned position.  `aligned_mod` is the cursor residue
/// (mod w) at which the end may start an aligned scan (0 going forward,
/// (w - E) mod w going backward expressed on cursor + E === 0).  A zero gap
/// with too few remaining elements is "dead": report a full column.
std::size_t gap_to_alignment(std::size_t cursor, std::size_t target_mod,
                             std::size_t rem, u32 w) {
  if (rem == 0) {
    return 0;  // unusable
  }
  const std::size_t g = (target_mod + w - cursor % w) % w;
  return g == 0 ? w : g;
}

/// One greedy step for one end of the lists.  Appends the thread's
/// assignment; `target_a` / `target_b` are the cursor residues at which an
/// aligned scan may start for each list.
ThreadAssign greedy_step(EndState& end, Budget& budget, u32 E, u32 w,
                         std::size_t target_a, std::size_t target_b) {
  const bool align_a = end.pos_a % w == target_a && budget.rem_a >= E;
  const bool align_b = end.pos_b % w == target_b && budget.rem_b >= E;

  ThreadAssign ta;
  if (align_a && (!align_b || budget.rem_a >= budget.rem_b)) {
    ta = {E, 0, true};
    budget.take(true, E);
    end.pos_a += E;
    return ta;
  }
  if (align_b) {
    ta = {0, E, false};
    budget.take(false, E);
    end.pos_b += E;
    return ta;
  }

  // Filler: close the smaller positive gap, top up from the other list.
  const std::size_t gap_a =
      gap_to_alignment(end.pos_a, target_a, budget.rem_a, w);
  const std::size_t gap_b =
      gap_to_alignment(end.pos_b, target_b, budget.rem_b, w);
  bool primary_a;
  if (gap_a == 0) {
    primary_a = false;
  } else if (gap_b == 0) {
    primary_a = true;
  } else {
    primary_a = gap_a <= gap_b;
  }

  const std::size_t prim_gap = primary_a ? gap_a : gap_b;
  const std::size_t prim_rem = primary_a ? budget.rem_a : budget.rem_b;
  const std::size_t other_rem = primary_a ? budget.rem_b : budget.rem_a;

  std::size_t from_prim =
      std::min({prim_gap, static_cast<std::size_t>(E), prim_rem});
  std::size_t from_other = std::min<std::size_t>(E - from_prim, other_rem);
  if (from_prim + from_other < E) {
    from_prim = std::min<std::size_t>(E - from_other, prim_rem);
  }
  WCM_EXPECTS(from_prim + from_other == E,
              "filler thread cannot gather E elements");

  const u32 fa = static_cast<u32>(primary_a ? from_prim : from_other);
  const u32 fb = static_cast<u32>(primary_a ? from_other : from_prim);
  budget.take(true, fa);
  budget.take(false, fb);
  end.pos_a += fa;
  end.pos_b += fb;
  return {fa, fb, primary_a};
}

WarpAssignment assemble(u32 w, u32 E, std::vector<ThreadAssign> front,
                        const std::vector<ThreadAssign>& back) {
  WarpAssignment wa;
  wa.w = w;
  wa.E = E;
  wa.threads = std::move(front);
  wa.threads.insert(wa.threads.end(), back.rbegin(), back.rend());
  return wa;
}

WarpAssignment front_to_back_impl(u32 w, u32 E) {
  EndState front;
  Budget budget{static_cast<std::size_t>((E + 1) / 2) * w,
                static_cast<std::size_t>((E - 1) / 2) * w};
  std::vector<ThreadAssign> threads;
  threads.reserve(w);
  for (u32 t = 0; t < w; ++t) {
    threads.push_back(greedy_step(front, budget, E, w, 0, 0));
  }
  WCM_ENSURES(budget.rem_a == 0 && budget.rem_b == 0,
              "construction must consume wE keys");
  return assemble(w, E, std::move(threads), {});
}

WarpAssignment back_to_front_impl(u32 w, u32 E) {
  // The mirror walk: the front-to-back solution traversed from the last
  // thread to the first.  A column aligned to banks [0, E) from the front
  // lands on banks [w-E, w) after reversal, so the window starts at w - E.
  WarpAssignment fwd = front_to_back_impl(w, E);
  std::reverse(fwd.threads.begin(), fwd.threads.end());
  optimize_scan_orders(fwd, w - E);
  return fwd;
}

WarpAssignment outside_in_impl(u32 w, u32 E) {
  // Claim aligned columns alternately from both ends (the proof of
  // Lemma 2's synthesis strategy).  Going backward, a full-column scan
  // [total - pos - E, total - pos) starts at bank 0 exactly when
  // pos === (w - E) mod w, since list totals are multiples of w.
  EndState front, back;
  Budget budget{static_cast<std::size_t>((E + 1) / 2) * w,
                static_cast<std::size_t>((E - 1) / 2) * w};
  const std::size_t back_target = (w - E % w) % w;

  std::vector<ThreadAssign> front_threads, back_threads;
  for (u32 t = 0; t < w; ++t) {
    if (t % 2 == 0) {
      front_threads.push_back(greedy_step(front, budget, E, w, 0, 0));
    } else {
      back_threads.push_back(
          greedy_step(back, budget, E, w, back_target, back_target));
    }
  }
  WCM_ENSURES(budget.rem_a == 0 && budget.rem_b == 0,
              "construction must consume wE keys");
  WarpAssignment wa = assemble(w, E, std::move(front_threads), back_threads);
  optimize_scan_orders(wa, 0);
  return wa;
}

}  // namespace

const char* to_string(AlignmentStrategy s) noexcept {
  switch (s) {
    case AlignmentStrategy::front_to_back:
      return "front-to-back";
    case AlignmentStrategy::back_to_front:
      return "back-to-front";
    case AlignmentStrategy::outside_in:
      return "outside-in";
  }
  return "?";
}

AlignmentStrategy parse_alignment_strategy(const std::string& name) {
  return cli::parse_choice<AlignmentStrategy>(
      "strategy", name,
      {{"front-to-back", AlignmentStrategy::front_to_back},
       {"back-to-front", AlignmentStrategy::back_to_front},
       {"outside-in", AlignmentStrategy::outside_in}});
}

SmallEConstruction build_small_e_variant(u32 w, u32 E, AlignmentStrategy s) {
  WCM_EXPECTS(classify_e(w, E) == ERegime::small,
              "Theorem 3 requires gcd(w, E) == 1 and E < w/2");
  SmallEConstruction c;
  switch (s) {
    case AlignmentStrategy::front_to_back:
      c.warp = front_to_back_impl(w, E);
      c.window_start = 0;
      break;
    case AlignmentStrategy::back_to_front:
      c.warp = back_to_front_impl(w, E);
      c.window_start = w - E;
      break;
    case AlignmentStrategy::outside_in:
      c.warp = outside_in_impl(w, E);
      c.window_start = 0;
      break;
  }
  c.warp.validate();
  const WarpEval eval = evaluate_warp(c.warp, c.window_start);
  WCM_ENSURES(eval.aligned == aligned_small_e(E),
              "every Lemma 2 strategy must align exactly E^2 elements");
  return c;
}

WarpAssignment build_small_e(u32 w, u32 E) {
  return build_small_e_variant(w, E, AlignmentStrategy::front_to_back).warp;
}

}  // namespace wcm::core
