// Tests for the padded shared-memory layout (the Dotsenko-style
// bank-conflict mitigation) and its end-to-end effect on the attack.

#include <gtest/gtest.h>

#include "gpusim/layout.hpp"
#include "gpusim/shared_memory.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "workload/inputs.hpp"

namespace wcm::gpusim {
namespace {

TEST(SharedLayout, IdentityWithoutPadding) {
  const SharedLayout l{32, 0};
  for (const std::size_t a : {0u, 1u, 31u, 32u, 1000u}) {
    EXPECT_EQ(l.physical(a), a);
  }
}

TEST(SharedLayout, PaddingShiftsColumns) {
  const SharedLayout l{32, 1};
  EXPECT_EQ(l.physical(0), 0u);
  EXPECT_EQ(l.physical(31), 31u);
  EXPECT_EQ(l.physical(32), 33u);  // one pad word after each 32
  EXPECT_EQ(l.physical(64), 66u);
}

TEST(SharedLayout, BankRotationProperty) {
  // With pad = 1, logical column c of bank b lands in bank (b + c) mod w:
  // a full stride-w logical column (the worst unpadded pattern) becomes
  // conflict-free.
  const SharedLayout l{32, 1};
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(l.physical(c * 32) % 32, c % 32);
  }
}

TEST(SharedMemoryPadded, ValuesUnaffectedByPadding) {
  SharedMemory shm(32, 128, 1);
  const auto vals = workload::random_permutation(128, 3);
  shm.fill(vals);
  EXPECT_EQ(shm.dump(0, 128), vals);
  shm.poke(100, 42);
  EXPECT_EQ(shm.peek(100), 42);
}

TEST(SharedMemoryPadded, StrideWBecomesConflictFree) {
  // Logical stride-w reads: all one bank unpadded, all different banks with
  // pad = 1.
  std::vector<LaneRead> reads;
  for (u32 lane = 0; lane < 32; ++lane) {
    reads.push_back({lane, static_cast<std::size_t>(lane) * 32});
  }
  SharedMemory unpadded(32, 32 * 32, 0);
  unpadded.warp_read(reads);
  EXPECT_EQ(unpadded.stats().replays, 31u);

  SharedMemory padded(32, 32 * 32, 1);
  padded.warp_read(reads);
  EXPECT_EQ(padded.stats().replays, 0u);
}

TEST(SharedMemoryPadded, BoundsAreLogical) {
  SharedMemory shm(32, 64, 1);
  EXPECT_EQ(shm.words(), 64u);
  EXPECT_THROW((void)shm.peek(64), contract_error);
  const std::vector<LaneRead> bad{{0, 64}};
  EXPECT_THROW((void)shm.warp_read(bad), contract_error);
}

TEST(SharedLayout, PermutationsAreRowBijections) {
  // xor and rotation must permute each row's w columns bijectively —
  // otherwise two logical words would alias one physical word.
  for (const LayoutKind kind :
       {LayoutKind::xor_swizzle, LayoutKind::rotation}) {
    const SharedLayout l{32, 0, kind};
    for (std::size_t row = 0; row < 64; ++row) {
      std::vector<bool> hit(32, false);
      for (u32 col = 0; col < 32; ++col) {
        const u32 p = l.permute(col, row);
        ASSERT_LT(p, 32u);
        ASSERT_FALSE(hit[p]) << "row " << row << " col " << col;
        hit[p] = true;
      }
    }
  }
}

TEST(SharedLayout, PermutedColumnsAreConflictFree) {
  // A logical column (stride w, the attacked pattern) touches w distinct
  // banks under both memory-free permutations.
  for (const LayoutKind kind :
       {LayoutKind::xor_swizzle, LayoutKind::rotation}) {
    const SharedLayout l{32, 0, kind};
    for (u32 c = 0; c < 32; ++c) {
      std::vector<bool> bank(32, false);
      for (std::size_t r = 0; r < 32; ++r) {
        const u32 b = l.bank(r * 32 + c);
        ASSERT_FALSE(bank[b]) << to_string(kind) << " col " << c;
        bank[b] = true;
      }
    }
  }
}

TEST(SharedMemoryPermuted, ValuesUnaffectedByPermutation) {
  for (const LayoutKind kind :
       {LayoutKind::xor_swizzle, LayoutKind::rotation}) {
    SharedMemory shm(SharedLayout{32, 0, kind}, 128);
    const auto vals = workload::random_permutation(128, 5);
    shm.fill(vals);
    EXPECT_EQ(shm.dump(0, 128), vals);
    shm.poke(100, 42);
    EXPECT_EQ(shm.peek(100), 42);
  }
}

TEST(SharedMemoryPermuted, StrideWBecomesConflictFree) {
  std::vector<LaneRead> reads;
  for (u32 lane = 0; lane < 32; ++lane) {
    reads.push_back({lane, static_cast<std::size_t>(lane) * 32});
  }
  for (const LayoutKind kind :
       {LayoutKind::xor_swizzle, LayoutKind::rotation}) {
    SharedMemory shm(SharedLayout{32, 0, kind}, 32 * 32);
    shm.warp_read(reads);
    EXPECT_EQ(shm.stats().replays, 0u) << to_string(kind);
  }
}

// physical() maps a power-of-two w with shifts and masks, and wraps a
// rotated column with a subtraction at any w; the reference below is the
// division formula.  Every w in 1..64 is checked, xor at powers of two.
TEST(SharedLayout, PowerOfTwoMappingMatchesTheDivisionFormula) {
  const auto reference = [](const SharedLayout& l, std::size_t logical) {
    const std::size_t row = logical / l.w;
    const u32 col = static_cast<u32>(logical % l.w);
    u32 pcol = col;
    if (l.kind == LayoutKind::xor_swizzle) {
      pcol = col ^ static_cast<u32>(row % l.w);
    } else if (l.kind == LayoutKind::rotation) {
      pcol = (col + static_cast<u32>(row % l.w)) % l.w;
    }
    return row * (l.w + l.pad) + pcol;
  };
  for (u32 w = 1; w <= 64; ++w) {
    for (u32 pad = 0; pad <= 3; ++pad) {
      for (const auto kind : {LayoutKind::linear, LayoutKind::xor_swizzle,
                              LayoutKind::rotation}) {
        if (kind == LayoutKind::xor_swizzle && !is_pow2(w)) {
          continue;
        }
        const SharedLayout l{w, pad, kind};
        for (std::size_t a = 0; a < std::size_t{4} * w * w; ++a) {
          const std::size_t want = reference(l, a);
          ASSERT_EQ(l.physical(a), want)
              << "w=" << w << " pad=" << pad << " " << to_string(kind)
              << " addr=" << a;
          ASSERT_EQ(l.bank(a), want % w)
              << "w=" << w << " pad=" << pad << " " << to_string(kind)
              << " addr=" << a;
        }
      }
    }
  }
}

TEST(SharedLayout, ParseRoundTrip) {
  EXPECT_EQ(parse_layout_kind("linear"), LayoutKind::linear);
  EXPECT_EQ(parse_layout_kind("xor"), LayoutKind::xor_swizzle);
  EXPECT_EQ(parse_layout_kind("rotation"), LayoutKind::rotation);
  EXPECT_THROW((void)parse_layout_kind("nope"), parse_error);
  EXPECT_STREQ(to_string(LayoutKind::xor_swizzle), "xor");
}

TEST(PaddingMitigation, ConfigSharedBytesIncludePadding) {
  auto cfg = wcm::sort::params_15_512();
  const auto base = cfg.shared_bytes();
  cfg.padding = 1;
  EXPECT_EQ(cfg.shared_bytes(), base + cfg.tile() / cfg.w * 4);
}

// End to end: padding collapses the constructed input's beta_2 to
// random-like levels and removes the slowdown.
TEST(PaddingMitigation, DefeatsTheConstruction) {
  wcm::sort::SortConfig cfg{5, 64, 32};
  const std::size_t n = cfg.tile() * 8;
  const auto dev = quadro_m4000();
  const auto worst =
      workload::make_input(workload::InputKind::worst_case, n, cfg, 3);
  const auto random =
      workload::make_input(workload::InputKind::random, n, cfg, 3);

  const auto attacked = wcm::sort::pairwise_merge_sort(worst, cfg, dev);
  cfg.padding = 1;
  const auto mitigated = wcm::sort::pairwise_merge_sort(worst, cfg, dev);
  const auto random_padded =
      wcm::sort::pairwise_merge_sort(random, cfg, dev);

  // Sharpest on the attacked rounds themselves: beta_2 = E without
  // padding, collapses well below E/1.5 with it.
  const double attacked_round_beta2 =
      beta2(attacked.rounds.back().kernel);
  const double mitigated_round_beta2 =
      beta2(mitigated.rounds.back().kernel);
  EXPECT_DOUBLE_EQ(attacked_round_beta2, 5.0);  // = E
  EXPECT_LT(mitigated_round_beta2, attacked_round_beta2 / 1.5);
  EXPECT_LT(mitigated.beta2(), attacked.beta2());
  // With padding, the constructed input behaves like any other input.
  EXPECT_NEAR(mitigated.seconds(), random_padded.seconds(),
              0.15 * random_padded.seconds());
  // And it still sorts.
  std::vector<word> out;
  cfg.padding = 1;
  (void)wcm::sort::pairwise_merge_sort(worst, cfg, dev,
                                       wcm::sort::MergeSortLibrary::thrust,
                                       &out);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

}  // namespace
}  // namespace wcm::gpusim
