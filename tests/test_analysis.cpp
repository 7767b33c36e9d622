// Tests for the slowdown statistics.

#include <gtest/gtest.h>

#include "analysis/series.hpp"
#include "util/check.hpp"

namespace wcm::analysis {
namespace {

TEST(Slowdown, Percent) {
  EXPECT_DOUBLE_EQ(slowdown_percent(1.0, 1.5), 50.0);
  EXPECT_DOUBLE_EQ(slowdown_percent(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(slowdown_percent(2.0, 1.0), -50.0);
  EXPECT_THROW((void)slowdown_percent(0.0, 1.0), contract_error);
}

std::vector<SeriesPoint> series(std::initializer_list<double> seconds) {
  std::vector<SeriesPoint> s;
  std::size_t n = 1000;
  for (const double sec : seconds) {
    SeriesPoint p;
    p.n = n;
    p.seconds = sec;
    p.throughput = static_cast<double>(n) / sec;
    s.push_back(p);
    n *= 2;
  }
  return s;
}

TEST(CompareSeries, PeakAndAverage) {
  const auto base = series({1.0, 2.0, 4.0});
  const auto slow = series({1.1, 3.0, 4.4});
  const auto stats = compare_series(base, slow);
  EXPECT_NEAR(stats.peak_percent, 50.0, 1e-9);
  EXPECT_EQ(stats.peak_n, 2000u);
  EXPECT_NEAR(stats.average_percent, (10.0 + 50.0 + 10.0) / 3.0, 1e-9);
}

TEST(CompareSeries, Contracts) {
  const auto a = series({1.0, 2.0});
  auto b = series({1.0});
  EXPECT_THROW((void)compare_series(a, b), contract_error);
  EXPECT_THROW((void)compare_series({}, {}), contract_error);
  b = series({1.0, 2.0});
  b[1].n = 999;  // mismatched size grid
  EXPECT_THROW((void)compare_series(a, b), contract_error);
}

}  // namespace
}  // namespace wcm::analysis
