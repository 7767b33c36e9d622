// Tests for the simulated block scan — correctness plus the Dotsenko
// bank-conflict law the paper's introduction cites: per-thread stride E
// sharing a factor d with the bank count costs d-way conflicts; co-prime
// strides (or padding) are conflict-free.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "gpusim/trace.hpp"
#include "sort/scan.hpp"
#include "util/check.hpp"
#include "workload/inputs.hpp"

namespace wcm::sort {
namespace {

std::vector<word> host_scan(std::span<const word> v) {
  std::vector<word> out(v.size());
  std::partial_sum(v.begin(), v.end(), out.begin());
  return out;
}

TEST(BlockScan, ComputesInclusivePrefixSum) {
  for (const u32 e : {4u, 15u, 16u}) {
    const SortConfig cfg{e, 64, 32};
    const std::size_t n = cfg.tile() * 3;
    auto input = workload::random_permutation(n, e);
    for (auto& x : input) {
      x %= 100;
    }
    std::vector<word> out;
    (void)block_scan(input, cfg, gpusim::quadro_m4000(), &out);
    EXPECT_EQ(out, host_scan(input)) << "E=" << e;
  }
}

TEST(BlockScan, RecordedTraceSanitizesClean) {
  // The scan kernel's barrier placement (publish / gather / scatter) must
  // satisfy the static race detector, and its strided phase-1 accesses are
  // exactly the affine steps the stride predictor prices in closed form.
  for (const u32 pad : {0u, 1u}) {
    SortConfig cfg{6, 64, 32};
    cfg.padding = pad;
    gpusim::TraceRecorder rec;
    cfg.trace_sink = &rec;
    const auto input = workload::random_permutation(cfg.tile() * 2, 42);
    std::vector<word> out;
    (void)block_scan(input, cfg, gpusim::quadro_m4000(), &out);

    analyze::AnalyzeOptions opts;
    opts.pad = pad;
    const auto report = analyze::analyze_trace(rec.take(), opts);
    ASSERT_TRUE(report.cross_checked) << "pad " << pad;
    if (!report.clean()) {
      std::ostringstream os;
      analyze::render_text(os, report, "block-scan");
      FAIL() << os.str();
    }
    EXPECT_GT(report.barriers, 0u);
  }
}

TEST(BlockScan, SingleTileAndContracts) {
  const SortConfig cfg{8, 64, 32};
  const auto input = workload::sorted_input(cfg.tile());
  std::vector<word> out;
  (void)block_scan(input, cfg, gpusim::quadro_m4000(), &out);
  EXPECT_EQ(out, host_scan(input));
  EXPECT_THROW(
      (void)block_scan(std::vector<word>{}, cfg, gpusim::quadro_m4000()),
      contract_error);
  EXPECT_THROW((void)block_scan(workload::sorted_input(cfg.tile() + 1), cfg,
                                gpusim::quadro_m4000()),
               contract_error);
}

// Every phase runs whole warps, so a partial last warp is refused up front
// rather than failing mid-simulation.
TEST(BlockScan, PartialLastWarpIsAConfigError) {
  const SortConfig cfg{5, 8, 3};
  const auto input = workload::random_permutation(cfg.tile(), 1);
  EXPECT_THROW((void)block_scan(input, cfg, gpusim::synthetic_device(3)),
               config_error);
}

// The Dotsenko law: the scan's conflicts are data-independent and scale
// with gcd(E, w).
TEST(BlockScan, ConflictsScaleWithGcd) {
  const auto dev = gpusim::quadro_m4000();
  double replays_per_elem[3];
  int i = 0;
  for (const u32 e : {15u, 16u, 8u}) {  // gcd 1, 16, 8
    const SortConfig cfg{e, 64, 32};
    const auto input = workload::random_permutation(cfg.tile() * 2, 1);
    const auto report = block_scan(input, cfg, dev);
    replays_per_elem[i++] =
        static_cast<double>(report.totals.shared.replays) /
        static_cast<double>(report.n);
  }
  // Closed form: phases 1 and 3 touch each element 4 times (2 reads + 2
  // writes) in warp steps of w lanes with d-way serialization, so replays
  // per element = 4 (d - 1) / w; the Hillis-Steele combine over the totals
  // region adds a small extra for the co-prime case only.
  EXPECT_LT(replays_per_elem[0], 0.3);                 // gcd 1: ~0
  EXPECT_DOUBLE_EQ(replays_per_elem[1], 4.0 * 15 / 32);  // E=16: 1.875
  EXPECT_DOUBLE_EQ(replays_per_elem[2], 4.0 * 7 / 32);   // E=8:  0.875
  EXPECT_GT(replays_per_elem[1], replays_per_elem[2]);
}

TEST(BlockScan, DataIndependentConflicts) {
  const SortConfig cfg{16, 64, 32};
  const auto dev = gpusim::quadro_m4000();
  const auto r1 = block_scan(
      workload::random_permutation(cfg.tile() * 2, 1), cfg, dev);
  const auto r2 = block_scan(workload::sorted_input(cfg.tile() * 2), cfg,
                             dev);
  EXPECT_EQ(r1.totals.shared.replays, r2.totals.shared.replays);
  EXPECT_EQ(r1.totals.shared.serialization_cycles,
            r2.totals.shared.serialization_cycles);
}

// Dotsenko's fix, both forms: pick E co-prime with w, or pad.
TEST(BlockScan, PaddingFixesSharedFactorStride) {
  const auto dev = gpusim::quadro_m4000();
  SortConfig cfg{16, 64, 32};
  const auto input = workload::random_permutation(cfg.tile() * 2, 1);
  const auto unpadded = block_scan(input, cfg, dev);
  cfg.padding = 1;
  std::vector<word> out;
  const auto padded = block_scan(input, cfg, dev, &out);
  EXPECT_EQ(out, host_scan(input));  // still correct
  EXPECT_LT(padded.totals.shared.replays * 10,
            unpadded.totals.shared.replays);
  EXPECT_LT(padded.seconds(), unpadded.seconds());
}

}  // namespace
}  // namespace wcm::sort
