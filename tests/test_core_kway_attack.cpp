// Tests for the K-way generalization of the worst-case construction: the
// per-warp greedy reaches E^2 for every (w, E, K) in the small-E regime,
// warp groups balance run totals, and the generated inputs drive the
// simulated multiway merge sort's rounds to near-worst-case serialization.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/conflict_model.hpp"
#include "core/kway_attack.hpp"
#include "sort/multiway.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/check.hpp"
#include "workload/inputs.hpp"

namespace wcm::core {
namespace {

struct Case {
  u32 w;
  u32 E;
  u32 ways;
};

class KWay : public ::testing::TestWithParam<Case> {};

TEST_P(KWay, WarpAlignsESquared) {
  const auto [w, E, ways] = GetParam();
  const auto wa = build_kway_warp(w, E, ways);
  const auto eval = evaluate_kway_warp(wa, 0);
  EXPECT_EQ(eval.aligned, static_cast<std::size_t>(E) * E);
  EXPECT_GE(eval.totals.serialization, static_cast<std::size_t>(E) * E);
}

TEST_P(KWay, GroupBalancesRunTotals) {
  const auto [w, E, ways] = GetParam();
  const auto group = build_kway_warp_group(w, E, ways);
  ASSERT_EQ(group.size(), ways);
  std::vector<std::size_t> sum(ways, 0);
  for (const auto& wa : group) {
    const auto t = wa.totals();
    for (u32 k = 0; k < ways; ++k) {
      sum[k] += t[k];
    }
    // Every rotation is itself a valid E^2 attack.
    EXPECT_EQ(evaluate_kway_warp(wa, 0).aligned,
              static_cast<std::size_t>(E) * E);
  }
  for (u32 k = 1; k < ways; ++k) {
    EXPECT_EQ(sum[k], sum[0]);  // balanced across the group
  }
}

std::vector<Case> grid() {
  std::vector<Case> cases;
  for (const u32 w : {32u, 64u}) {
    for (const u32 e : {5u, 7u, 11u, 15u}) {
      if (classify_e(w, e) != ERegime::small) {
        continue;
      }
      for (const u32 k : {2u, 3u, 4u, 5u}) {
        if (k <= e) {
          cases.push_back({w, e, k});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, KWay, ::testing::ValuesIn(grid()),
                         [](const auto& tinfo) {
                           std::string name(1, 'w');
                           name += std::to_string(tinfo.param.w);
                           name += "_E";
                           name += std::to_string(tinfo.param.E);
                           name += "_K";
                           name += std::to_string(tinfo.param.ways);
                           return name;
                         });

TEST(KWayAttack, RejectsWrongRegimeAndShapes) {
  EXPECT_THROW((void)build_kway_warp(32, 17, 4), contract_error);  // large E
  EXPECT_THROW((void)build_kway_warp(32, 15, 1), contract_error);
  EXPECT_THROW((void)build_kway_warp(32, 5, 6), contract_error);  // K > E
}

TEST(KWayAttack, GeneratorProducesPermutation) {
  const sort::SortConfig cfg{5, 128, 32};  // b/w = 4, K = 4 divides it
  const std::size_t n = cfg.tile() * 16;   // 4^2 runs
  const auto v = kway_worst_case_input(n, cfg, 4, 1);
  EXPECT_TRUE(workload::is_permutation_of_iota(v));
  EXPECT_THROW((void)kway_worst_case_input(cfg.tile() * 8, cfg, 4, 1),
               contract_error);  // 8 != 4^j
}

// The payoff: the K-way input drives the multiway sort's merge rounds to
// (near-)worst-case serialization, where the pairwise worst case only
// partially transfers.
TEST(KWayAttack, DrivesMultiwaySortToWorstCase) {
  const sort::SortConfig cfg{5, 128, 32};
  const u32 ways = 4;
  const std::size_t n = cfg.tile() * 16;
  const auto dev = gpusim::quadro_m4000();

  const auto kworst = kway_worst_case_input(n, cfg, ways, 1);
  const auto pworst =
      workload::make_input(workload::InputKind::worst_case, n, cfg, 1);
  const auto random = workload::random_permutation(n, 1);

  const auto r_k = sort::multiway_merge_sort(kworst, cfg, dev, ways);
  const auto r_p = sort::multiway_merge_sort(pworst, cfg, dev, ways);
  const auto r_r = sort::multiway_merge_sort(random, cfg, dev, ways);

  const double k_beta2 = gpusim::beta2(r_k.rounds.back().kernel);
  const double p_beta2 = gpusim::beta2(r_p.rounds.back().kernel);
  const double r_beta2 = gpusim::beta2(r_r.rounds.back().kernel);
  // The tailored input beats both the transferred pairwise input and
  // random, and sits near the E ceiling.
  EXPECT_GT(k_beta2, p_beta2);
  EXPECT_GT(k_beta2, r_beta2);
  EXPECT_GT(k_beta2, 0.8 * cfg.E);
  // And it still sorts.
  std::vector<dmm::word> out;
  (void)sort::multiway_merge_sort(kworst, cfg, dev, ways, &out);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(KWayAttack, TwoWayMatchesPairwiseQuotas) {
  // K = 2 degenerates to the paper's L-warp list sizes.
  const auto wa = build_kway_warp(32, 15, 2);
  const auto t = wa.totals();
  EXPECT_EQ(t[0], 8u * 32u);  // (E+1)/2 columns
  EXPECT_EQ(t[1], 7u * 32u);  // (E-1)/2 columns
}

}  // namespace
}  // namespace wcm::core
