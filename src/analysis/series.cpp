#include "analysis/series.hpp"

#include "sort/report.hpp"
#include "util/check.hpp"

namespace wcm::analysis {

SeriesPoint point_of(const sort::SortReport& report) {
  SeriesPoint p;
  p.n = report.n;
  p.throughput = report.throughput();
  p.seconds = report.seconds();
  p.conflicts_per_elem = report.conflicts_per_element();
  p.beta1 = report.beta1();
  p.beta2 = report.beta2();
  return p;
}

double slowdown_percent(double fast_seconds, double slow_seconds) {
  WCM_EXPECTS(fast_seconds > 0.0, "baseline time must be positive");
  return (slow_seconds - fast_seconds) / fast_seconds * 100.0;
}

SlowdownStats compare_series(const std::vector<SeriesPoint>& baseline,
                             const std::vector<SeriesPoint>& degraded) {
  WCM_EXPECTS(!baseline.empty(), "empty series");
  WCM_EXPECTS(baseline.size() == degraded.size(), "series length mismatch");

  SlowdownStats stats;
  double sum = 0.0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    WCM_EXPECTS(baseline[i].n == degraded[i].n, "series sizes must match");
    const double s =
        slowdown_percent(baseline[i].seconds, degraded[i].seconds);
    sum += s;
    if (s > stats.peak_percent) {
      stats.peak_percent = s;
      stats.peak_n = baseline[i].n;
    }
  }
  stats.average_percent = sum / static_cast<double>(baseline.size());
  return stats;
}

}  // namespace wcm::analysis
