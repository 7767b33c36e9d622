#pragma once
// The result of one simulated sort: per-kernel statistics, totals, and
// modeled time.  Everything the figures plot is derived from this struct.

#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/stats.hpp"
#include "sort/config.hpp"

namespace wcm::sort {

using dmm::word;

struct SortReport {
  SortConfig config;
  gpusim::Device device;
  std::size_t n = 0;

  /// Block sort, then one entry per global merge round, in execution order.
  std::vector<gpusim::RoundStats> rounds;

  /// Sums over all rounds.
  gpusim::KernelStats totals;
  gpusim::KernelTime total_time;

  [[nodiscard]] double seconds() const noexcept { return total_time.seconds; }
  /// Elements sorted per second of modeled time (the figures' y-axis).
  [[nodiscard]] double throughput() const noexcept;
  /// Modeled milliseconds per element (Figure 6 left axis).
  [[nodiscard]] double ms_per_element() const noexcept;
  /// Bank conflicts per element (Figure 6 right axis): replay wavefronts,
  /// the metric NVIDIA's profiler reports.
  [[nodiscard]] double conflicts_per_element() const noexcept;
  /// beta_2 over the whole sort's lock-step merge reads.
  [[nodiscard]] double beta2() const noexcept;
  /// beta_1 over the whole sort's merge-path probes.
  [[nodiscard]] double beta1() const noexcept;

  [[nodiscard]] std::string summary() const;

  /// Close one kernel round: price `kernel` once on this report's device,
  /// record the round's telemetry under `engine`, add it to the totals and
  /// append it to `rounds`.  Every engine ends each round here.
  void close_round(const char* engine, std::string name,
                   const gpusim::KernelStats& kernel,
                   const gpusim::LaunchConfig& launch,
                   const gpusim::Calibration& cal);
  /// Re-price every round on this report's device and rebuild total_time
  /// from the rounds (after a device or library change).
  void reprice(const gpusim::LaunchConfig& launch,
               const gpusim::Calibration& cal);
};

}  // namespace wcm::sort
