#pragma once
// Event counters produced by one simulated kernel (one merge round, the
// block sort, or the partition pass).  The cost model converts these into
// modeled time; benches and tests read them directly.

#include <string>
#include <vector>

#include "dmm/access.hpp"
#include "util/math.hpp"

namespace wcm::gpusim {

struct KernelStats {
  /// Shared-memory contention totals (from SharedMemory::stats()).
  dmm::MachineStats shared;
  /// Subset of `shared`: the lock-step merge reads only (the accesses the
  /// paper's beta_2 and the worst-case construction are about).
  dmm::MachineStats shared_merge_reads;
  /// Subset of `shared`: the in-block merge-path binary-search probes (the
  /// paper's beta_1).
  dmm::MachineStats shared_search;

  /// Coalesced 32-lane global-memory transactions (loads + stores).
  std::size_t global_transactions = 0;
  /// Individual global element accesses (for coalescing-efficiency checks).
  std::size_t global_requests = 0;

  /// Dependent global-latency round trips on the critical path of one block
  /// (binary-search iterations of the partitioning stage), summed over
  /// blocks; divide by blocks_launched for the per-block chain length.
  std::size_t binary_search_steps = 0;

  /// Lock-step merge iterations, summed over warps.
  std::size_t warp_merge_steps = 0;

  /// Register-level compare-exchanges of the base case's odd-even sorting
  /// network, summed over warps (no memory traffic, compute only).
  std::size_t register_compare_steps = 0;

  std::size_t blocks_launched = 0;
  std::size_t elements_processed = 0;

  KernelStats& operator+=(const KernelStats& o) noexcept;
  bool operator==(const KernelStats& o) const noexcept = default;
};

/// A named kernel's stats (e.g. "block-sort", "round 3 partition").
struct RoundStats {
  std::string name;
  KernelStats kernel;
  double modeled_seconds = 0.0;
};

/// beta_2: mean serialization per lock-step merge read (Karsin et al.
/// measured ~2.2 on random inputs; the construction drives it to ~E).
[[nodiscard]] double beta2(const KernelStats& s) noexcept;

/// beta_1: mean serialization per merge-path binary-search probe.
[[nodiscard]] double beta1(const KernelStats& s) noexcept;

/// Bank conflicts per element, the Figure 6 y-axis: replay wavefronts (the
/// metric NVIDIA's profiler reports) divided by elements processed.
[[nodiscard]] double conflicts_per_element(const KernelStats& s) noexcept;

/// Feed one finished round's counters into the telemetry registry as
/// `sim.round.*{E=..,engine=..,pad=..,round=..}` counters plus the
/// per-engine `sim.replays_per_round` histogram (docs/TELEMETRY.md).
/// Because every round is exported with its exact KernelStats, summing
/// the `sim.round.replays` rows of a snapshot reproduces
/// `SortReport::totals.shared.replays` bit-for-bit — the cross-check the
/// telemetry tests enforce.  No-op unless telemetry::enabled().
void record_round_telemetry(const char* engine, const std::string& round,
                            u32 e, u32 pad, const KernelStats& stats);

}  // namespace wcm::gpusim
