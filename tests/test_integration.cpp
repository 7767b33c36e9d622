// End-to-end integration tests: the paper's qualitative claims, verified on
// the full pipeline (generator -> simulated sort -> cost model) at test-
// friendly sizes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/conflict_model.hpp"
#include "core/generator.hpp"
#include "runtime/campaign.hpp"
#include "sort/pairwise_sort.hpp"
#include "workload/inputs.hpp"

namespace wcm {
namespace {

struct DeviceLibCase {
  gpusim::Device device;
  sort::SortConfig config;
  sort::MergeSortLibrary library;
};

class WorstVsRandom : public ::testing::TestWithParam<DeviceLibCase> {};

// The paper's headline experiment: constructed inputs are measurably slower
// than random inputs, and incur more bank conflicts, on every device /
// library / parameter combination evaluated.
TEST_P(WorstVsRandom, WorstCaseSlowerAndMoreConflicted) {
  const auto& p = GetParam();
  const std::size_t n = p.config.tile() * 8;
  const auto worst =
      workload::make_input(workload::InputKind::worst_case, n, p.config, 3);
  const auto random =
      workload::make_input(workload::InputKind::random, n, p.config, 3);
  const auto rw = sort::pairwise_merge_sort(worst, p.config, p.device,
                                            p.library);
  const auto rr = sort::pairwise_merge_sort(random, p.config, p.device,
                                            p.library);
  EXPECT_GT(rw.seconds(), rr.seconds());
  EXPECT_GT(rw.conflicts_per_element(), rr.conflicts_per_element());
  EXPECT_GT(rw.beta2(), rr.beta2());
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, WorstVsRandom,
    ::testing::Values(
        DeviceLibCase{gpusim::quadro_m4000(), sort::params_15_512(),
                      sort::MergeSortLibrary::thrust},
        DeviceLibCase{gpusim::quadro_m4000(), sort::params_15_128(),
                      sort::MergeSortLibrary::mgpu},
        DeviceLibCase{gpusim::rtx_2080ti(), sort::params_15_512(),
                      sort::MergeSortLibrary::thrust},
        DeviceLibCase{gpusim::rtx_2080ti(), sort::params_17_256(),
                      sort::MergeSortLibrary::thrust},
        DeviceLibCase{gpusim::rtx_2080ti(), sort::params_17_256(),
                      sort::MergeSortLibrary::mgpu}),
    [](const auto& tinfo) {
      return std::string(tinfo.param.device.cc_major == 5 ? "M4000_"
                                                         : "RTX2080Ti_") +
             to_string(tinfo.param.library) + "_E" +
             std::to_string(tinfo.param.config.E) + "_b" +
             std::to_string(tinfo.param.config.b);
    });

// Random inputs produce beta_2 in the low single digits (Karsin et al.
// measured ~2.2 for Modern GPU); the constructed inputs drive the attacked
// rounds to ~E.
TEST(Integration, RandomBeta2IsSmall) {
  const auto cfg = sort::params_15_128();
  const std::size_t n = cfg.tile() * 8;
  const auto input = workload::random_permutation(n, 11);
  const auto r = sort::pairwise_merge_sort(input, cfg,
                                           gpusim::quadro_m4000());
  EXPECT_GT(r.beta2(), 1.5);
  EXPECT_LT(r.beta2(), 4.5);
}

TEST(Integration, SortedInputGentlerThanRandom) {
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() * 8;
  const auto dev = gpusim::quadro_m4000();
  const auto r_sorted = sort::pairwise_merge_sort(
      workload::sorted_input(n), cfg, dev);
  const auto r_random = sort::pairwise_merge_sort(
      workload::random_permutation(n, 1), cfg, dev);
  EXPECT_LT(r_sorted.conflicts_per_element(),
            r_random.conflicts_per_element());
}

// Figure 6's qualitative content: both conflicts/element and runtime/element
// grow with N (logarithmically — each doubling adds one attacked round), and
// the conflict curve predicts the runtime curve.
TEST(Integration, ConflictsAndRuntimePerElementGrowWithN) {
  runtime::SweepSpec spec;
  spec.device = gpusim::quadro_m4000();
  spec.config = sort::SortConfig{5, 64, 32};
  spec.input = workload::InputKind::worst_case;
  spec.min_k = 1;
  spec.max_k = 4;
  const auto s = runtime::run_sweeps({spec}).front();
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GT(s[i].conflicts_per_element(), s[i - 1].conflicts_per_element());
  }
  // Log growth: increments per doubling shrink or stay roughly constant.
  const double inc1 =
      s[1].conflicts_per_element() - s[0].conflicts_per_element();
  const double inc3 =
      s[3].conflicts_per_element() - s[2].conflicts_per_element();
  EXPECT_LT(std::abs(inc3 - inc1), 0.5 * inc1 + 0.2);
}

// The Sec. IV-B occupancy finding, end to end: on the 2080 Ti model,
// E=15,b=512 beats E=17,b=256 on random inputs, but suffers a larger
// relative slowdown on the constructed inputs.
TEST(Integration, OccupancyTradeoffOn2080Ti) {
  const auto dev = gpusim::rtx_2080ti();
  const auto full = sort::params_15_512();
  const auto partial = sort::params_17_256();
  // k = 5: large enough that the occupancy asymmetry dominates the fixed
  // per-kernel overheads (the crossover sits around k = 4).
  const std::size_t n_full = full.tile() * 32;
  const std::size_t n_partial = partial.tile() * 32;

  const auto full_rand = sort::pairwise_merge_sort(
      workload::random_permutation(n_full, 2), full, dev);
  const auto full_worst = sort::pairwise_merge_sort(
      workload::make_input(workload::InputKind::worst_case, n_full, full, 2),
      full, dev);
  const auto part_rand = sort::pairwise_merge_sort(
      workload::random_permutation(n_partial, 2), partial, dev);
  const auto part_worst = sort::pairwise_merge_sort(
      workload::make_input(workload::InputKind::worst_case, n_partial,
                           partial, 2),
      partial, dev);

  EXPECT_GT(full_rand.throughput(), part_rand.throughput());
  const double slow_full =
      analysis::slowdown_percent(full_rand.seconds(), full_worst.seconds());
  const double slow_partial =
      analysis::slowdown_percent(part_rand.seconds(), part_worst.seconds());
  EXPECT_GT(slow_full, slow_partial);
  EXPECT_GT(slow_partial, 0.0);
}

// Sec. III-C: the effective parallelism falls to ceil(w/E); check the
// attacked rounds' mean serialization implies exactly that loss.
TEST(Integration, EffectiveParallelismLoss) {
  const sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() * 4;
  const auto input = core::worst_case_input(n, cfg);
  const auto r = sort::pairwise_merge_sort(input, cfg,
                                           gpusim::quadro_m4000());
  const auto& attacked = r.rounds.back().kernel;
  const double beta2 = gpusim::beta2(attacked);
  // Parallel time is inflated by beta2 = E; effective threads = w / E.
  const double effective = cfg.w / beta2;
  EXPECT_NEAR(effective,
              static_cast<double>(cfg.w) / cfg.E, 1e-9);
  EXPECT_LE(std::ceil(effective),
            static_cast<double>(
                core::effective_parallelism(cfg.w, cfg.E)) + 1.0);
}

}  // namespace
}  // namespace wcm
