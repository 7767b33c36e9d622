#pragma once
// Throughput series and the slowdown statistics the paper reports (peak and
// average slowdown of worst-case versus random inputs).

#include <vector>

#include "util/math.hpp"

namespace wcm::sort {
struct SortReport;  // sort/report.hpp
}  // namespace wcm::sort

namespace wcm::analysis {

/// One measured point of a throughput curve: the flat numbers the figures
/// plot, and the value the campaign's WCMC cache and WCMJ journal store.
struct SeriesPoint {
  std::size_t n = 0;
  double throughput = 0.0;       ///< elements per second
  double seconds = 0.0;          ///< modeled time
  double conflicts_per_elem = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;

  bool operator==(const SeriesPoint&) const = default;
};

/// The point a simulated sort contributes to its curve.
[[nodiscard]] SeriesPoint point_of(const sort::SortReport& report);

/// Slowdown of `slow` relative to `fast` at one size:
/// (T_slow - T_fast) / T_fast, in percent.
[[nodiscard]] double slowdown_percent(double fast_seconds,
                                      double slow_seconds);

struct SlowdownStats {
  double peak_percent = 0.0;
  std::size_t peak_n = 0;  ///< input size where the peak occurs
  double average_percent = 0.0;
};

/// Compare two curves measured at identical sizes (contract-checked) and
/// report the paper's peak / average slowdown statistics.
[[nodiscard]] SlowdownStats compare_series(
    const std::vector<SeriesPoint>& baseline,
    const std::vector<SeriesPoint>& degraded);

}  // namespace wcm::analysis
