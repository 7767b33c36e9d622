#pragma once
// Statistics, benchmark-side spans, and the self-validating report.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (the program itself is not instrumented): name, layer,
// start, end and parent, kept in memory and written once at the end.  A
// layer's self time is its spans' duration minus the part covered by child
// spans.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace perfbench {

using wcm::u32;
using wcm::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0,1]) of an ascending sample.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// Median and quartiles of a sample, plus the tail percentiles the
/// benchmark reports.
struct Summary {
  std::size_t n = 0;
  double q1 = 0, median = 0, q3 = 0, p90 = 0, p99 = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> sample);

/// Quantile q of a time-ordered sample taken window by window: the sample
/// is cut into consecutive windows of at least `window` values, q is taken
/// in each, and the median over windows is returned.  A stall of the host
/// that lands in one window moves that window's tail, not the result.
[[nodiscard]] double windowed_quantile(const std::vector<double>& sample,
                                       std::size_t window, double q);

/// One reported metric: the value, its unit, the number of samples behind
/// it, and (for sampled metrics) the median with quartiles.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
  double q1 = 0, median = 0, q3 = 0;
};

/// In-memory span recorder (a no-op while disabled).
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int open(const std::string& name, const std::string& layer);
  void close(int id);

  /// Self seconds per layer over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Chrome-trace JSON of every span (one process, one thread).
  [[nodiscard]] std::string chrome_trace() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  class Scope {
   public:
    Scope(Spans& spans, const std::string& name, const std::string& layer)
        : spans_(spans), id_(spans.open(name, layer)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The run's result: correctness, failure accounting, metrics, and the
/// provenance every report records.
struct Report {
  std::string workload;
  u64 seed = 0;
  u32 seconds = 0;
  bool trace = false;
  bool correct = true;
  std::vector<std::string> check_failures;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> provenance;
  std::map<std::string, double> detail;  // supporting figures, not metrics

  void fail_check(const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  /// A metric summarized from samples: value = the sample's median.
  void add_sampled(const std::string& name, const std::vector<double>& sample,
                   const std::string& unit);
  /// A metric derived from a sample (a rate, a percentile): value as
  /// given, with the sample's count and quartiles recorded beside it.
  void add_derived(const std::string& name, double value,
                   const std::string& unit, const std::vector<double>& sample);

  /// Full report: provenance, checks, per-metric sample counts and
  /// quartiles.
  [[nodiscard]] std::string render_full() const;
  /// The result line: exactly {correct, attempted, failed, metrics}.
  [[nodiscard]] std::string render_line() const;
};

}  // namespace perfbench
