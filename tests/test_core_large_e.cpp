// Tests for the Theorem 9 (large E) construction: sequence S and T
// structure (insertion rules, group sums) and the exact closed-form aligned
// count, swept over every valid (w, E) pair.

#include <gtest/gtest.h>

#include "core/large_e.hpp"
#include "core/numbers.hpp"
#include "util/check.hpp"

namespace wcm::core {
namespace {

struct Case {
  u32 w;
  u32 E;
};

class LargeE : public ::testing::TestWithParam<Case> {};

TEST_P(LargeE, SequenceSHasEntriesSummingToE) {
  const auto [w, E] = GetParam();
  const auto s = build_sequence_s(w, E);
  ASSERT_EQ(s.size(), static_cast<std::size_t>(E - 1));
  for (const auto& t : s) {
    EXPECT_EQ(t.from_a + t.from_b, E);
  }
}

TEST_P(LargeE, SequenceTHasWEntries) {
  const auto [w, E] = GetParam();
  const auto t = build_sequence_t(w, E);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(w));  // r+1 insertions
  for (const auto& ta : t) {
    EXPECT_EQ(ta.from_a + ta.from_b, E);
  }
}

// Theorem 9's proof: T consists of E groups of consecutive entries whose
// A- (or B-) components sum to w: (E-1)/2 + 1 groups in A, (E-1)/2 in B.
TEST_P(LargeE, SequenceTGroupsSumToW) {
  const auto [w, E] = GetParam();
  const auto t = build_sequence_t(w, E);

  const auto count_groups = [&](const bool use_a) {
    u32 groups = 0;
    u32 acc = 0;
    for (const auto& ta : t) {
      acc += use_a ? ta.from_a : ta.from_b;
      EXPECT_LE(acc, w);
      if (acc == w) {
        ++groups;
        acc = 0;
      }
    }
    EXPECT_EQ(acc, 0u);  // the final group closes exactly
    return groups;
  };
  EXPECT_EQ(count_groups(true), (E - 1) / 2 + 1);
  EXPECT_EQ(count_groups(false), (E - 1) / 2);
}

TEST_P(LargeE, AlignsClosedFormCount) {
  const auto [w, E] = GetParam();
  const auto wa = build_large_e(w, E);
  const auto eval = evaluate_warp(wa, w - E);
  EXPECT_EQ(eval.aligned, aligned_large_e(w, E));
}

TEST_P(LargeE, MirroredWarpAlignsEquallyMany) {
  const auto [w, E] = GetParam();
  const auto wa = build_large_e(w, E).mirrored();
  const auto eval = evaluate_warp(wa, w - E);
  EXPECT_EQ(eval.aligned, aligned_large_e(w, E));
}

TEST_P(LargeE, AsymptoticallyQuadratic) {
  // Sec. III-B: the count is Theta(E^2) — between E^2/2 and E^2.
  const auto [w, E] = GetParam();
  const u64 aligned = aligned_large_e(w, E);
  EXPECT_GE(aligned, static_cast<u64>(E) * E / 2);
  EXPECT_LE(aligned, static_cast<u64>(E) * E);
}

std::vector<Case> all_large_cases() {
  std::vector<Case> cases;
  for (const u32 w : {8u, 16u, 32u, 64u, 128u}) {
    for (u32 E = 3; E < w; E += 2) {
      if (classify_e(w, E) == ERegime::large) {
        cases.push_back({w, E});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLargeE, LargeE, ::testing::ValuesIn(all_large_cases()),
                         [](const auto& tinfo) {
                           std::string name(1, 'w');
                           name += std::to_string(tinfo.param.w);
                           name += "_E";
                           name += std::to_string(tinfo.param.E);
                           return name;
                         });

TEST(LargeEConstruction, RejectsWrongRegime) {
  EXPECT_THROW((void)build_large_e(32, 15), contract_error);  // small
  EXPECT_THROW((void)build_large_e(32, 16), contract_error);  // pow2
}

TEST(LargeEConstruction, PaperFigure3RightValue) {
  // w=16, E=9: 80 aligned elements (Figure 3, right subfigure).
  const auto wa = build_large_e(16, 9);
  EXPECT_EQ(evaluate_warp(wa, 7).aligned, 80u);
}

TEST(LargeEConstruction, SequenceSStartsAndEndsWithR) {
  // (a_1, b_1) = (r, E-r) and (a_{E-1}, b_{E-1}) = (r, E-r): the anchors of
  // insertion rule 1.
  const u32 w = 16, E = 9, r = 7;
  const auto s = build_sequence_s(w, E);
  EXPECT_EQ(s.front().from_a, r);
  EXPECT_EQ(s.front().from_b, E - r);
  EXPECT_EQ(s.back().from_a, r);
  EXPECT_EQ(s.back().from_b, E - r);
}

}  // namespace
}  // namespace wcm::core
