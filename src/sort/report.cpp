#include "sort/report.hpp"

#include <sstream>

namespace wcm::sort {

namespace {

/// The one call into the cost model per round: keep the seconds on the
/// round, hand the full time split to the caller's totals.
gpusim::KernelTime price(gpusim::RoundStats& round, const gpusim::Device& dev,
                         const gpusim::LaunchConfig& launch,
                         const gpusim::Calibration& cal) {
  const gpusim::KernelTime t =
      gpusim::estimate_kernel_time(dev, launch, round.kernel, cal);
  round.modeled_seconds = t.seconds;
  return t;
}

}  // namespace

double SortReport::throughput() const noexcept {
  if (total_time.seconds <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(n) / total_time.seconds;
}

double SortReport::ms_per_element() const noexcept {
  if (n == 0) {
    return 0.0;
  }
  return total_time.seconds * 1e3 / static_cast<double>(n);
}

double SortReport::conflicts_per_element() const noexcept {
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(totals.shared.replays) /
         static_cast<double>(n);
}

void SortReport::close_round(const char* engine, std::string name,
                             const gpusim::KernelStats& kernel,
                             const gpusim::LaunchConfig& launch,
                             const gpusim::Calibration& cal) {
  gpusim::RoundStats round{std::move(name), kernel, 0.0};
  total_time += price(round, device, launch, cal);
  gpusim::record_round_telemetry(engine, round.name, config.E, config.padding,
                                 kernel);
  totals += kernel;
  rounds.push_back(std::move(round));
}

void SortReport::reprice(const gpusim::LaunchConfig& launch,
                         const gpusim::Calibration& cal) {
  total_time = {};
  for (gpusim::RoundStats& round : rounds) {
    total_time += price(round, device, launch, cal);
  }
}

double SortReport::beta2() const noexcept { return gpusim::beta2(totals); }
double SortReport::beta1() const noexcept { return gpusim::beta1(totals); }

std::string SortReport::summary() const {
  std::ostringstream os;
  os << device.name << " [" << config.to_string() << "] n=" << n
     << " time=" << total_time.seconds * 1e3 << "ms"
     << " throughput=" << throughput() / 1e6 << "Me/s"
     << " conflicts/elem=" << conflicts_per_element()
     << " beta1=" << beta1() << " beta2=" << beta2();
  return os.str();
}

}  // namespace wcm::sort
