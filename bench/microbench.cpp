// Microbenchmarks (google-benchmark): host-side throughput of the
// library's building blocks — the constructions, the generator, merge
// path, the DMM step analyzer, and the simulator itself.  These measure
// *this library's* code on the host CPU (the figure benches report modeled
// GPU time instead).

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "core/generator.hpp"
#include "core/warp_construction.hpp"
#include "dmm/access.hpp"
#include "mergepath/partition.hpp"
#include "sort/cpu_reference.hpp"
#include "sort/pairwise_sort.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workload/inputs.hpp"

namespace {

using namespace wcm;

void BM_WarpConstructionSmallE(benchmark::State& state) {
  const u32 e = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_warp(32, e));
  }
}
BENCHMARK(BM_WarpConstructionSmallE)->Arg(5)->Arg(15);

void BM_WarpConstructionLargeE(benchmark::State& state) {
  const u32 e = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_warp(32, e));
  }
}
BENCHMARK(BM_WarpConstructionLargeE)->Arg(17)->Arg(31);

void BM_WorstCaseGenerator(benchmark::State& state) {
  const auto cfg = sort::params_15_512();
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::worst_case_input(n, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WorstCaseGenerator)->Arg(1)->Arg(4)->Arg(7);

void BM_MergePathPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = workload::sorted_input(n);
  auto b = workload::sorted_input(n);
  for (auto& x : b) {
    x += 1;  // interleave
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mergepath::partition_tiles(a, b, n / 64));
  }
}
BENCHMARK(BM_MergePathPartition)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_DmmAnalyzeStep(benchmark::State& state) {
  // One 32-lane read step on 32 banks per pattern: 0 conflict-free (lane l
  // in bank l), 1 a 2-address broadcast (16 lanes each on addresses 0 and
  // 1), 2 8-way (8 columns in each of banks 0..3), 3 32-way (32 columns
  // of bank 0).
  const auto pattern = state.range(0);
  std::vector<dmm::Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    const std::size_t addr = pattern == 0   ? lane
                             : pattern == 1 ? lane % 2
                             : pattern == 2 ? (lane / 4) * 32 + lane % 4
                                            : lane * 32;
    step.push_back({lane, addr, dmm::Op::read, 0});
  }
  const std::array<const char*, 4> names{"conflict-free", "broadcast",
                                         "8-way", "32-way"};
  state.SetLabel(names.at(static_cast<std::size_t>(pattern)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmm::analyze_step(step, 32));
  }
}
BENCHMARK(BM_DmmAnalyzeStep)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SimulatedSort(benchmark::State& state) {
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() << static_cast<u32>(state.range(0));
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatedSort)->Arg(1)->Arg(3);

// Telemetry overhead pins (ISSUE acceptance: disabled telemetry must cost
// <2% on the simulator microbenches).  BM_SimulatedSort above runs with
// every instrumented site compiled in but telemetry off — compare it
// against the pre-telemetry baseline for the <2% budget — and
// BM_SimulatedSortTelemetryOn quantifies the opt-in cost of metrics +
// tracing on the same workload.

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  // The off-path of WCM_SPAN: one relaxed atomic load, no buffer touch.
  telemetry::set_tracing(false);
  for (auto _ : state) {
    WCM_SPAN("bm.span.off");
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::set_tracing(true);
  std::size_t since_drain = 0;
  for (auto _ : state) {
    {
      WCM_SPAN("bm.span.on");
    }
    if (++since_drain == 65536) {  // bound the buffer, off the clock
      since_drain = 0;
      state.PauseTiming();
      telemetry::reset_trace();
      state.ResumeTiming();
    }
  }
  telemetry::set_tracing(false);
  telemetry::reset_trace();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterAdd(benchmark::State& state) {
  // Hot path of an instrumented site that caches its handle.
  telemetry::set_enabled(true);
  auto& counter = telemetry::registry().counter("bm.counter");
  for (auto _ : state) {
    counter.add(1);
  }
  telemetry::set_enabled(false);
  telemetry::registry().reset();
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryRegistryLookup(benchmark::State& state) {
  // Hot path of a site that re-looks-up by (name, labels) every time, the
  // pattern record_round_telemetry uses.
  telemetry::set_enabled(true);
  const telemetry::Labels labels = {{"engine", "pairwise"}, {"round", "r1"}};
  for (auto _ : state) {
    telemetry::registry().counter("bm.lookup", labels).add(1);
  }
  telemetry::set_enabled(false);
  telemetry::registry().reset();
}
BENCHMARK(BM_TelemetryRegistryLookup);

void BM_SimulatedSortTelemetryOn(benchmark::State& state) {
  telemetry::set_enabled(true);
  telemetry::set_tracing(true);
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() << 1;
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000()));
  }
  telemetry::set_tracing(false);
  telemetry::set_enabled(false);
  telemetry::reset_trace();
  telemetry::registry().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatedSortTelemetryOn);

void BM_CpuReferenceSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto input = workload::random_permutation(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sort::cpu_pairwise_merge_sort(input, 512));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CpuReferenceSort)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
