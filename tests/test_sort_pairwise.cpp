// Tests for the full simulated pairwise merge sort: functional correctness
// against the CPU references (including the exact same merge tree), report
// integrity, stats invariants, non-power-of-two run counts, and re-costing
// one run for another library.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sort/cpu_reference.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/check.hpp"
#include "workload/inputs.hpp"

namespace wcm::sort {
namespace {

SortConfig tiny() { return SortConfig{5, 64, 32}; }

TEST(PairwiseSort, SortsRandomInput) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 8;
  const auto input = workload::random_permutation(n, 21);
  std::vector<word> out;
  const auto report = pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                                          MergeSortLibrary::thrust, &out);
  EXPECT_EQ(out, std_sort(input));
  EXPECT_EQ(report.n, n);
}

TEST(PairwiseSort, MatchesCpuMergeTree) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 4;
  const auto input = workload::random_permutation(n, 22);
  std::vector<word> out;
  (void)pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                            MergeSortLibrary::thrust, &out);
  EXPECT_EQ(out, cpu_pairwise_merge_sort(input, cfg.tile()));
}

TEST(PairwiseSort, NonPowerOfTwoRunCount) {
  const SortConfig cfg = tiny();
  for (const std::size_t tiles : {1u, 3u, 5u, 6u, 7u}) {
    const std::size_t n = cfg.tile() * tiles;
    const auto input = workload::random_permutation(n, 30 + tiles);
    std::vector<word> out;
    (void)pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                              MergeSortLibrary::thrust, &out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "tiles=" << tiles;
    EXPECT_EQ(out, std_sort(input));
  }
}

TEST(PairwiseSort, RejectsBadSizes) {
  const SortConfig cfg = tiny();
  const auto dev = gpusim::quadro_m4000();
  EXPECT_THROW((void)pairwise_merge_sort(std::vector<word>{}, cfg, dev),
               contract_error);
  const auto input = workload::random_permutation(cfg.tile() + 1, 1);
  EXPECT_THROW((void)pairwise_merge_sort(input, cfg, dev), contract_error);
}

TEST(PairwiseSort, RoundStructure) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 8;  // 3 global rounds
  const auto input = workload::random_permutation(n, 2);
  const auto report =
      pairwise_merge_sort(input, cfg, gpusim::quadro_m4000());
  ASSERT_EQ(report.rounds.size(), 4u);  // block-sort + 3 merges
  EXPECT_EQ(report.rounds[0].name, "block-sort");
  EXPECT_EQ(report.rounds[3].name, "merge round 3");
  for (const auto& r : report.rounds) {
    EXPECT_GT(r.modeled_seconds, 0.0) << r.name;
  }
  // Totals are the sum of rounds.
  std::size_t req = 0;
  for (const auto& r : report.rounds) {
    req += r.kernel.shared.requests;
  }
  EXPECT_EQ(report.totals.shared.requests, req);
}

TEST(PairwiseSort, EveryGlobalRoundConsumesEachElementOnce) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 4;
  const auto input = workload::random_permutation(n, 8);
  const auto report =
      pairwise_merge_sort(input, cfg, gpusim::quadro_m4000());
  for (std::size_t i = 1; i < report.rounds.size(); ++i) {
    EXPECT_EQ(report.rounds[i].kernel.shared_merge_reads.requests, n)
        << report.rounds[i].name;
    EXPECT_EQ(report.rounds[i].kernel.elements_processed, n);
  }
}

TEST(PairwiseSort, ThroughputAndPerElementMetrics) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 4;
  const auto input = workload::random_permutation(n, 8);
  const auto report =
      pairwise_merge_sort(input, cfg, gpusim::quadro_m4000());
  EXPECT_GT(report.throughput(), 0.0);
  EXPECT_GT(report.ms_per_element(), 0.0);
  EXPECT_GT(report.conflicts_per_element(), 0.0);
  EXPECT_GE(report.beta2(), 1.0);
  EXPECT_GE(report.beta1(), 1.0);
  EXPECT_NEAR(report.throughput() * report.seconds(),
              static_cast<double>(n), 1e-3);
  EXPECT_FALSE(report.summary().empty());
}

TEST(PairwiseSort, MgpuSlowerThanThrustSameInput) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 4;
  const auto input = workload::random_permutation(n, 8);
  const auto dev = gpusim::quadro_m4000();
  const auto thrust =
      pairwise_merge_sort(input, cfg, dev, MergeSortLibrary::thrust);
  const auto mgpu =
      pairwise_merge_sort(input, cfg, dev, MergeSortLibrary::mgpu);
  EXPECT_GT(mgpu.seconds(), thrust.seconds());
  // Same algorithm: identical conflict counts, different modeled time.
  EXPECT_EQ(mgpu.totals.shared.replays, thrust.totals.shared.replays);
}

// Figure 5 prices its Modern GPU curves by re-costing each Thrust run, so
// the re-cost must equal a direct Modern GPU sort of the same input bit for
// bit, round by round.
TEST(PairwiseSort, RecostForMgpuEqualsADirectMgpuSort) {
  const auto dev = gpusim::rtx_2080ti();
  for (const SortConfig& cfg : {params_15_512(), params_17_256()}) {
    for (const auto kind :
         {workload::InputKind::random, workload::InputKind::worst_case}) {
      for (u32 k = 1; k <= 3; ++k) {
        SCOPED_TRACE(cfg.to_string() + " " + workload::to_string(kind) +
                     " k=" + std::to_string(k));
        const auto input =
            workload::make_input(kind, cfg.tile() << k, cfg, 1 + k);
        const auto recosted =
            recost(pairwise_merge_sort(input, cfg, dev,
                                       MergeSortLibrary::thrust),
                   dev, MergeSortLibrary::mgpu);
        const auto direct =
            pairwise_merge_sort(input, cfg, dev, MergeSortLibrary::mgpu);
        EXPECT_EQ(recosted.seconds(), direct.seconds());
        EXPECT_EQ(recosted.conflicts_per_element(),
                  direct.conflicts_per_element());
        EXPECT_EQ(recosted.beta2(), direct.beta2());
        ASSERT_EQ(recosted.rounds.size(), direct.rounds.size());
        for (std::size_t r = 0; r < direct.rounds.size(); ++r) {
          EXPECT_EQ(recosted.rounds[r].modeled_seconds,
                    direct.rounds[r].modeled_seconds)
              << direct.rounds[r].name;
        }
      }
    }
  }
}

TEST(PairwiseSort, AlreadySortedInputStillSorts) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 2;
  const auto input = workload::sorted_input(n);
  std::vector<word> out;
  (void)pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                            MergeSortLibrary::thrust, &out);
  EXPECT_EQ(out, input);
}

TEST(PairwiseSort, DuplicateKeysSupported) {
  const SortConfig cfg = tiny();
  const std::size_t n = cfg.tile() * 2;
  auto input = workload::random_permutation(n, 5);
  for (auto& x : input) {
    x /= 4;  // many duplicates
  }
  std::vector<word> out;
  (void)pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                            MergeSortLibrary::thrust, &out);
  EXPECT_EQ(out, std_sort(input));
}

TEST(CpuReference, PartialRoundsProgressTowardSorted) {
  const auto input = workload::random_permutation(64, 3);
  const auto after0 = cpu_pairwise_partial(input, 8, 0);
  for (std::size_t lo = 0; lo < 64; lo += 8) {
    EXPECT_TRUE(std::is_sorted(
        after0.begin() + static_cast<std::ptrdiff_t>(lo),
        after0.begin() + static_cast<std::ptrdiff_t>(lo + 8)));
  }
  const auto after3 = cpu_pairwise_partial(input, 8, 3);
  EXPECT_TRUE(std::is_sorted(after3.begin(), after3.end()));
  EXPECT_EQ(after3, std_sort(input));
}

TEST(SyntheticDevice, ParameterScaling) {
  const auto d16 = gpusim::synthetic_device(16);
  EXPECT_EQ(d16.warp_size, 16u);
  EXPECT_EQ(d16.max_threads_per_sm, 1024u);
  const auto d64 = gpusim::synthetic_device(64);
  EXPECT_EQ(d64.warp_size, 64u);
  // End to end with a non-standard width.
  SortConfig cfg{7, 64, 16};
  const auto input = workload::random_permutation(cfg.tile() * 4, 2);
  std::vector<word> out;
  (void)pairwise_merge_sort(input, cfg, d16, MergeSortLibrary::thrust, &out);
  EXPECT_EQ(out, std_sort(input));
}

TEST(PairwiseSort, WarpSizeMustMatchDevice) {
  SortConfig cfg = tiny();
  cfg.w = 16;
  cfg.b = 64;
  const auto input = workload::random_permutation(cfg.tile() * 2, 5);
  EXPECT_THROW(
      (void)pairwise_merge_sort(input, cfg, gpusim::quadro_m4000()),
      contract_error);
}

}  // namespace
}  // namespace wcm::sort
