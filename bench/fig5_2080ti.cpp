// Figures 5 and 6 reproduction on the RTX 2080 Ti model.
//
// Figure 5: throughput for both software parameter sets (E=15,b=512 and
// E=17,b=256), Thrust and Modern GPU, random vs worst-case inputs.  One
// simulation per (config, input, size); the Modern GPU curves are
// re-costed from the same event counters (same algorithm, different
// constant factors), exactly like the paper runs both libraries with the
// same parameters.  Paper headline numbers: E=15,b=512 peak slowdown
// 42.43% (Thrust) / 42.62% (MGPU); E=17,b=256 peak 22.94% / 20.34%.
// Asserted shape: E=15,b=512 faster on random but *larger* slowdown under
// attack.
//
// Figure 6: runtime per element and bank conflicts per element of the
// same Thrust worst-case runs.  The paper's two claims:
//   1. the conflicts-per-element curve *predicts* the runtime-per-element
//      curve (their relative order matches), and
//   2. both grow logarithmically in n (each doubling of n adds one merge
//      round of roughly constant per-element cost).
//
// The four Thrust sweeps run concurrently through runtime::run_sweeps
// (WCM_THREADS overrides the worker count; WCM_MIN_K / WCM_MAX_K the size
// range, default 1..8).  Exits 1 when a shape check prints MISMATCH.

#include <algorithm>
#include <iostream>
#include <vector>

#include "runtime/campaign.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace wcm;

  // WCM_TRACE_OUT=<path> records the bench as a Chrome trace; the wall
  // clock below shares the tracer's time source (telemetry/stopwatch.hpp).
  telemetry::configure_from_env();
  const telemetry::Stopwatch wall;

  const auto dev = gpusim::rtx_2080ti();
  runtime::SweepSpec base;
  base.device = dev;
  runtime::apply_env_overrides(base);

  struct Curves {
    sort::SortConfig config;
    // [input][lib] -> series; input 0 = random, 1 = worst; lib 0 = thrust,
    // 1 = mgpu.
    std::vector<analysis::SeriesPoint> series[2][2];
  };
  Curves sets[2] = {{sort::params_15_512(), {}},
                    {sort::params_17_256(), {}}};

  // One Thrust sweep per (set, input); each Modern GPU point re-costs the
  // Thrust report of the same cell.
  std::vector<runtime::SweepSpec> specs;
  for (const auto& set : sets) {
    for (const auto kind :
         {workload::InputKind::random, workload::InputKind::worst_case}) {
      runtime::SweepSpec spec = base;
      spec.config = set.config;
      spec.input = kind;
      specs.push_back(spec);
    }
  }
  {
    WCM_SPAN("bench.fig5.sweeps");
    const auto sweeps = runtime::run_sweeps(specs);
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      auto& series = sets[i / 2].series[i % 2];
      for (const auto& report : sweeps[i]) {
        series[0].push_back(analysis::point_of(report));
        series[1].push_back(analysis::point_of(
            sort::recost(report, dev, sort::MergeSortLibrary::mgpu)));
      }
    }
  }

  for (int lib = 0; lib < 2; ++lib) {
    std::cout << "=== Figure 5 ("
              << (lib == 0 ? "left: Thrust" : "right: Modern GPU") << ") on "
              << dev.name << " (Me/s, modeled) ===\n\n";
    Table t({"k", "n(15,512)", "rand(15,512)", "worst(15,512)", "n(17,256)",
             "rand(17,256)", "worst(17,256)"});
    for (std::size_t i = 0; i < sets[0].series[0][0].size(); ++i) {
      t.new_row()
          .add(static_cast<std::size_t>(base.min_k + i))
          .add(sets[0].series[0][0][i].n)
          .add(sets[0].series[0][lib][i].throughput / 1e6, 1)
          .add(sets[0].series[1][lib][i].throughput / 1e6, 1)
          .add(sets[1].series[0][0][i].n)
          .add(sets[1].series[0][lib][i].throughput / 1e6, 1)
          .add(sets[1].series[1][lib][i].throughput / 1e6, 1);
    }
    t.print(std::cout);
    maybe_export_csv(t, lib == 0 ? "fig5_thrust" : "fig5_mgpu");
    std::cout << '\n';
  }

  const char* paper[2][2] = {{"42.43% / 33.31%", "42.62% / 35.25%"},
                             {"22.94% / 16.54%", "20.34% / 12.97%"}};
  double peak[2][2];
  std::cout << "slowdown of constructed inputs vs random (peak / average):\n";
  for (int set = 0; set < 2; ++set) {
    for (int lib = 0; lib < 2; ++lib) {
      const auto stats = analysis::compare_series(sets[set].series[0][lib],
                                                  sets[set].series[1][lib]);
      peak[set][lib] = stats.peak_percent;
      std::cout << "  " << sets[set].config.to_string() << " "
                << (lib == 0 ? "Thrust" : "MGPU  ") << ": "
                << format_fixed(stats.peak_percent, 2) << "% / "
                << format_fixed(stats.average_percent, 2)
                << "%   (paper: " << paper[set][lib] << ")\n";
    }
  }

  const bool random_order =
      sets[0].series[0][0].back().throughput >
      sets[1].series[0][0].back().throughput;
  const bool slowdown_order =
      peak[0][0] > peak[1][0] && peak[0][1] > peak[1][1];
  std::cout << "\nshape checks (paper Sec. IV-B):\n"
            << "  E=15,b=512 outperforms E=17,b=256 on random inputs: "
            << (random_order ? "ok" : "MISMATCH") << '\n'
            << "  ...but suffers the larger slowdown on constructed inputs: "
            << (slowdown_order ? "ok" : "MISMATCH") << '\n';

  // Figure 6: the Thrust worst-case curves of both parameter sets.
  const auto& c1 = sets[0].series[1][0];
  const auto& c2 = sets[1].series[1][0];
  std::cout << "=== Figure 6: per-element runtime and bank conflicts, "
               "Thrust worst-case on "
            << dev.name << " ===\n\n";
  Table t6({"k", "n(15,512)", "ns/elem(15,512)", "confl/elem(15,512)",
            "n(17,256)", "ns/elem(17,256)", "confl/elem(17,256)"});
  for (std::size_t i = 0; i < c1.size(); ++i) {
    t6.new_row()
        .add(static_cast<std::size_t>(base.min_k + i))
        .add(c1[i].n)
        .add(c1[i].seconds / static_cast<double>(c1[i].n) * 1e9, 3)
        .add(c1[i].conflicts_per_elem, 3)
        .add(c2[i].n)
        .add(c2[i].seconds / static_cast<double>(c2[i].n) * 1e9, 3)
        .add(c2[i].conflicts_per_elem, 3);
  }
  t6.print(std::cout);
  maybe_export_csv(t6, "fig6_conflicts_runtime");

  // Claim 1: conflicts/element predicts runtime/element — compare relative
  // order of the two configurations' curves at the common-k grid.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < c1.size(); ++i) {
    const bool conflicts_higher = c1[i].conflicts_per_elem >
                                  c2[i].conflicts_per_elem;
    const bool runtime_higher =
        c1[i].seconds / static_cast<double>(c1[i].n) >
        c2[i].seconds / static_cast<double>(c2[i].n);
    agree += conflicts_higher == runtime_higher ? 1 : 0;
  }

  // Claim 2: logarithmic growth — per-doubling increments of
  // conflicts/element are roughly constant (linear in k = log2(n / bE)).
  // A single size has no increment to compare.
  bool log_growth = true;
  std::cout << "\nshape checks (paper Sec. IV-B, Fig. 6):\n"
            << "  conflicts/element predicts runtime/element ranking at "
            << agree << "/" << c1.size() << " sizes\n";
  if (c1.size() >= 2) {
    double inc_min = c1[1].conflicts_per_elem - c1[0].conflicts_per_elem;
    double inc_max = inc_min;
    for (std::size_t i = 2; i < c1.size(); ++i) {
      const double d = c1[i].conflicts_per_elem - c1[i - 1].conflicts_per_elem;
      inc_min = std::min(inc_min, d);
      inc_max = std::max(inc_max, d);
    }
    log_growth = inc_max - inc_min < 0.5 * inc_max + 0.2;
    std::cout << "  logarithmic growth: per-doubling conflict increment in ["
              << format_fixed(inc_min, 3) << ", " << format_fixed(inc_max, 3)
              << "] (roughly constant -> log growth): "
              << (log_growth ? "ok" : "MISMATCH") << '\n';
  }
  std::cout << "wall time: " << format_fixed(wall.elapsed_seconds(), 2)
            << " s\n";
  telemetry::flush_trace(&std::cerr);
  return random_order && slowdown_order && log_growth ? 0 : 1;
}
