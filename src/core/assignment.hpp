#pragma once
// Per-warp thread assignments — the language Section III's constructions
// are written in.  An assignment says, for each of the w threads of a warp,
// how many of its E merged elements come from list A, how many from list B,
// and which list it scans first (the paper designs inputs so each thread
// scans one list, then the other).
//
// The evaluator replays the resulting lock-step access schedule and counts
// aligned elements exactly as the paper defines them: element read at
// iteration j located in bank (s + j) mod w — plus the full conflict
// metrics via the DMM step analyzer.

#include <string>
#include <vector>

#include "dmm/access.hpp"
#include "util/math.hpp"

namespace wcm::core {

struct ThreadAssign {
  u32 from_a = 0;
  u32 from_b = 0;
  bool a_first = true;  ///< scan A then B (all A values < all B values)
};

/// Assignment of one warp's wE elements to its w threads.
struct WarpAssignment {
  u32 w = 0;
  u32 E = 0;
  std::vector<ThreadAssign> threads;  // size w

  [[nodiscard]] std::size_t total_a() const noexcept;
  [[nodiscard]] std::size_t total_b() const noexcept;

  /// Contract-checks: w threads, every thread sums to E.
  void validate() const;

  /// Swap the roles of A and B (the paper's symmetric R-warp strategy).
  [[nodiscard]] WarpAssignment mirrored() const;
};

/// Evaluation of a warp assignment's lock-step merge schedule.
struct WarpEval {
  std::size_t aligned = 0;  ///< elements read at step j from bank (s+j)%w
  dmm::StepCost totals;     ///< summed conflict metrics over the E steps
  /// Worst-bank degree per step (length E), for plotting/debugging.
  std::vector<std::size_t> step_degree;
};

/// The lock-step schedule evaluator behind evaluate_warp and
/// evaluate_kway_warp: `per_thread[t][j]` is the shared address thread t
/// (of w) reads at iteration j (of E).  Counts the elements read at
/// iteration j from bank (s + j) mod w and prices each iteration's
/// warp-wide read as one DMM step.
[[nodiscard]] WarpEval evaluate_schedule(
    const std::vector<std::vector<std::size_t>>& per_thread, u32 w, u32 E,
    u32 s);

/// Replay the warp's E lock-step iterations.  A occupies shared addresses
/// [0, total_a); B occupies [ceil(total_a / w) * w, ...), so both lists
/// start at bank 0 exactly as the constructions (and the simulated block
/// layout, where per-warp list sizes are multiples of w) guarantee.
/// `s` is the start bank of the E-bank alignment window.
[[nodiscard]] WarpEval evaluate_warp(const WarpAssignment& wa, u32 s);

/// Choose each thread's scan order to maximize its aligned elements for
/// window start `s`.  Exact: a thread's element *addresses* are fixed by
/// the counts (prefix sums over threads); its order only shifts the
/// iteration at which each element is read, so per-thread choice is
/// globally optimal.  A contiguous run of n <= w elements starting at bank
/// c, read at iterations j0..j0+n-1, is aligned iff c === s + j0 (mod w) —
/// all or nothing per (thread, list).
void optimize_scan_orders(WarpAssignment& wa, u32 s);

/// Figure-3 style rendering: the warp's A and B lists as bank matrices with
/// each element labeled by the thread that reads it.
[[nodiscard]] std::string render_warp(const WarpAssignment& wa);

/// Conflict heatmap: one row per lock-step iteration, one column per bank,
/// each cell the number of threads hitting that bank at that iteration
/// ('.' for zero).  The worst-case construction shows as a diagonal stripe
/// of E-high cells across the alignment window.
[[nodiscard]] std::string render_conflict_heatmap(const WarpAssignment& wa);

}  // namespace wcm::core
