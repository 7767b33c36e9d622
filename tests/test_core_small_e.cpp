// Tests for the Theorem 3 (small E) construction: exhaustive TEST_P sweep
// over every valid (w, E) pair asserting the exact E^2 aligned count, plus
// structural checks mirroring the proof.

#include <gtest/gtest.h>

#include "core/numbers.hpp"
#include "core/small_e.hpp"
#include "util/check.hpp"

namespace wcm::core {
namespace {

struct Case {
  u32 w;
  u32 E;
};

class SmallE : public ::testing::TestWithParam<Case> {};

TEST_P(SmallE, AlignsExactlyESquared) {
  const auto [w, E] = GetParam();
  const auto wa = build_small_e(w, E);
  const auto eval = evaluate_warp(wa, 0);
  EXPECT_EQ(eval.aligned, static_cast<std::size_t>(E) * E);
}

TEST_P(SmallE, ListSizesMatchGeneralStrategy) {
  const auto [w, E] = GetParam();
  const auto wa = build_small_e(w, E);
  EXPECT_EQ(wa.total_a(), static_cast<std::size_t>((E + 1) / 2) * w);
  EXPECT_EQ(wa.total_b(), static_cast<std::size_t>((E - 1) / 2) * w);
}

TEST_P(SmallE, EveryStepIsEWaySerialized) {
  // Theorem 3 achieves the absolute worst case: at every merge iteration,
  // E threads read the same bank (beta_2 = E).
  const auto [w, E] = GetParam();
  const auto wa = build_small_e(w, E);
  const auto eval = evaluate_warp(wa, 0);
  ASSERT_EQ(eval.step_degree.size(), E);
  for (u32 j = 0; j < E; ++j) {
    EXPECT_GE(eval.step_degree[j], E) << "step " << j;
  }
  EXPECT_GE(eval.totals.serialization, static_cast<std::size_t>(E) * E);
}

TEST_P(SmallE, ExactlyEAlignedThreads) {
  // The proof aligns E full columns: (E+1)/2 in A, (E-1)/2 in B, each
  // claimed by one thread scanning a single list.
  const auto [w, E] = GetParam();
  const auto wa = build_small_e(w, E);
  u32 full_a = 0, full_b = 0;
  for (const auto& t : wa.threads) {
    if (t.from_a == E) {
      ++full_a;
    }
    if (t.from_b == E) {
      ++full_b;
    }
  }
  EXPECT_GE(full_a, (E + 1) / 2);
  EXPECT_GE(full_b, (E - 1) / 2);
}

TEST_P(SmallE, MirroredWarpAlignsEquallyMany) {
  const auto [w, E] = GetParam();
  const auto wa = build_small_e(w, E).mirrored();
  const auto eval = evaluate_warp(wa, 0);
  EXPECT_EQ(eval.aligned, static_cast<std::size_t>(E) * E);
}

// Lemma 2's three alignment strategies: all reach E^2 aligned, from
// different assignments (distinct members of the worst-case family).
TEST_P(SmallE, AllThreeStrategiesReachESquared) {
  const auto [w, E] = GetParam();
  for (const auto s :
       {AlignmentStrategy::front_to_back, AlignmentStrategy::back_to_front,
        AlignmentStrategy::outside_in}) {
    const auto c = build_small_e_variant(w, E, s);
    const auto eval = evaluate_warp(c.warp, c.window_start);
    EXPECT_EQ(eval.aligned, static_cast<std::size_t>(E) * E)
        << to_string(s);
  }
}

TEST_P(SmallE, StrategiesProduceDistinctAssignments) {
  const auto [w, E] = GetParam();
  const auto ftb =
      build_small_e_variant(w, E, AlignmentStrategy::front_to_back);
  const auto btf =
      build_small_e_variant(w, E, AlignmentStrategy::back_to_front);
  // The mirror walk claims columns in the opposite thread order; the
  // per-thread count vectors differ (unless the greedy is palindromic,
  // which it is not: thread 0 is a full-A scan, thread w-1 is a filler).
  bool differ = false;
  for (u32 t = 0; t < w; ++t) {
    differ = differ ||
             ftb.warp.threads[t].from_a != btf.warp.threads[t].from_a;
  }
  EXPECT_TRUE(differ);
}

TEST_P(SmallE, BackToFrontIsMirrorOfFrontToBack) {
  const auto [w, E] = GetParam();
  const auto ftb =
      build_small_e_variant(w, E, AlignmentStrategy::front_to_back);
  const auto btf =
      build_small_e_variant(w, E, AlignmentStrategy::back_to_front);
  for (u32 t = 0; t < w; ++t) {
    EXPECT_EQ(btf.warp.threads[t].from_a,
              ftb.warp.threads[w - 1 - t].from_a);
    EXPECT_EQ(btf.warp.threads[t].from_b,
              ftb.warp.threads[w - 1 - t].from_b);
  }
  EXPECT_EQ(btf.window_start, w - E);
}

std::vector<Case> all_small_cases() {
  std::vector<Case> cases;
  for (const u32 w : {8u, 16u, 32u, 64u, 128u}) {
    for (u32 E = 3; 2 * E < w; E += 2) {
      if (classify_e(w, E) == ERegime::small) {
        cases.push_back({w, E});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSmallE, SmallE,
                         ::testing::ValuesIn(all_small_cases()),
                         [](const auto& tinfo) {
                           std::string name(1, 'w');
                           name += std::to_string(tinfo.param.w);
                           name += "_E";
                           name += std::to_string(tinfo.param.E);
                           return name;
                         });

TEST(SmallEConstruction, RejectsWrongRegime) {
  EXPECT_THROW((void)build_small_e(32, 17), contract_error);  // large
  EXPECT_THROW((void)build_small_e(32, 8), contract_error);   // pow2
  EXPECT_THROW((void)build_small_e(32, 12), contract_error);  // gcd 4
}

TEST(SmallEConstruction, PaperFigure3LeftShape) {
  // w=16, E=7: thread 0 scans A, thread 1 scans B (proof of Theorem 3).
  const auto wa = build_small_e(16, 7);
  EXPECT_EQ(wa.threads[0].from_a, 7u);
  EXPECT_EQ(wa.threads[1].from_b, 7u);
  EXPECT_EQ(evaluate_warp(wa, 0).aligned, 49u);
}

}  // namespace
}  // namespace wcm::core
