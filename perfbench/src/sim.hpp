#pragma once
// The simulator side of the benchmark: closed-loop runs of simulated sorts
// over a grid of cells, the traced replay of their access streams, and the
// expected-totals file the correctness checks compare against.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/layout.hpp"
#include "report.hpp"
#include "sort/pairwise_sort.hpp"

namespace perfbench {

enum class SimEngine { pairwise, shearsort };

[[nodiscard]] const char* to_string(SimEngine engine) noexcept;

/// One library tuning of the paper's evaluation.
struct Tuning {
  std::string name;
  u32 E = 15;
  u32 b = 512;
  wcm::gpusim::Device device;
  wcm::sort::MergeSortLibrary library = wcm::sort::MergeSortLibrary::thrust;
  u32 k_min = 1;
  u32 k_max = 1;
  u32 k_traced = 1;  ///< the size the traced run replays
};

struct SimLayout {
  std::string name;
  u32 pad = 0;
  wcm::gpusim::LayoutKind kind = wcm::gpusim::LayoutKind::linear;
};

/// One cell of the grid: engine x tuning x input x layout x size.
struct SimCell {
  SimEngine engine = SimEngine::pairwise;
  const Tuning* tuning = nullptr;
  bool worst_case = false;
  SimLayout layout;
  u32 k = 1;
  std::size_t n = 0;

  [[nodiscard]] std::string key() const;
  [[nodiscard]] wcm::sort::SortConfig config() const;
};

/// Input seeds a cell can draw (the expected file holds every one).
inline constexpr u32 kSeedPool = 8;

[[nodiscard]] const std::vector<Tuning>& tunings();
/// Every cell of an engine's grid, in canonical order.
[[nodiscard]] std::vector<SimCell> sim_grid(SimEngine engine);

/// SortReport totals a cell must reproduce exactly.
struct Totals {
  u64 steps = 0;
  u64 serialization = 0;
  u64 replays = 0;
  u64 conflicting = 0;
  double modeled_seconds = 0;
};
using Expected = std::map<std::string, Totals>;  // "<cell key>#<pool seed>"

[[nodiscard]] Expected load_expected(const std::string& path);
/// Simulate every (cell, pool seed) of both engines on `threads` threads
/// and write the expected file.
void write_expected(std::ostream& os, u32 threads);

/// One closed-loop phase on one thread.
struct SimLoopOptions {
  SimEngine engine = SimEngine::pairwise;
  u64 seed = 1;
  double seconds = 1;
  /// Control phase: only each tuning's smallest size, no slowdown check.
  bool control = false;
};

struct SimLoopResult {
  std::vector<double> ns_per_elem;  // one per cell
  double elements = 0;
  double busy_s = 0;
  u64 cells = 0;
  u64 failed = 0;
};

SimLoopResult run_sim_loop(const SimLoopOptions& opts, const Expected& expected,
                           Report& report);

/// Traced run: each traced cell of the primary engine (every tuning x
/// input x layout at the tuning's traced size, or its smallest size for a
/// control phase) is timed without and with spans, then its recorded
/// access stream is replayed through gpusim::replay_stats and
/// dmm::analyze_step.  The other engine runs one probe cell per tuning.
/// Adds the dmm/gpusim/sort/core/workload per-layer metrics and returns
/// the span overhead share (traced minus untraced, over untraced).
double run_sim_traced(SimEngine primary, bool control, u64 seed,
                      const Expected& expected, Spans& spans, Report& report);

}  // namespace perfbench
