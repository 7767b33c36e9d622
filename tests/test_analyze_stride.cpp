// Unit tests for the affine stride analyzer (analyze/stride.hpp): the
// closed-form serialization table for strides 1..32 at w = 32 (the paper's
// gcd structure), the exact fallback for padded layouts and non-affine
// steps, the predicted-vs-measured cross-check against the DMM replay, and
// the conflict kernel pinned against both independent oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "analyze/stride.hpp"
#include "analyze/symbolic/domain.hpp"
#include "dmm/access.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wcm {
namespace {

using gpusim::LayoutKind;
using gpusim::SharedLayout;
using gpusim::StepKind;
using gpusim::Trace;
using gpusim::TraceStep;

TraceStep access(StepKind kind,
                 std::vector<std::pair<u32, std::size_t>> accesses) {
  TraceStep step;
  step.kind = kind;
  step.accesses = std::move(accesses);
  return step;
}

TraceStep full_warp_read(u32 w, i64 base, i64 stride) {
  TraceStep step;
  step.kind = StepKind::read;
  for (u32 lane = 0; lane < w; ++lane) {
    step.accesses.emplace_back(
        lane, static_cast<std::size_t>(base + stride * static_cast<i64>(lane)));
  }
  return step;
}

std::vector<u32> full_warp_lanes(u32 w) {
  std::vector<u32> lanes(w);
  std::iota(lanes.begin(), lanes.end(), 0u);
  return lanes;
}

// ------------------------------------------------------- classification --

TEST(AnalyzeStride, ClassifiesAffineSteps) {
  const auto strided = full_warp_read(32, 3, 5);
  const auto cls = analyze::classify_affine(strided);
  EXPECT_TRUE(cls.affine);
  EXPECT_EQ(cls.stride, 5);
  EXPECT_EQ(cls.base, 3);

  // A single request is trivially affine with stride 0.
  const auto lone = access(StepKind::read, {{7, 42}});
  const auto lone_cls = analyze::classify_affine(lone);
  EXPECT_TRUE(lone_cls.affine);
  EXPECT_EQ(lone_cls.stride, 0);
  EXPECT_EQ(lone_cls.base, 42);

  // Negative strides (descending unstage order) classify too.
  const auto desc = access(StepKind::read, {{0, 31}, {1, 30}, {2, 29}});
  const auto desc_cls = analyze::classify_affine(desc);
  EXPECT_TRUE(desc_cls.affine);
  EXPECT_EQ(desc_cls.stride, -1);
  EXPECT_EQ(desc_cls.base, 31);
}

TEST(AnalyzeStride, RejectsNonAffineSteps) {
  // First two accesses fit addr = lane, the third breaks the fit.
  const auto broken = access(StepKind::read, {{0, 0}, {1, 1}, {2, 7}});
  EXPECT_FALSE(analyze::classify_affine(broken).affine);

  // Non-integral stride between the first two lanes.
  const auto frac = access(StepKind::read, {{0, 0}, {2, 3}});
  EXPECT_FALSE(analyze::classify_affine(frac).affine);

  // Two requests from distinct lanes to one address *is* affine (stride 0
  // broadcast) — only genuinely irregular patterns fall to exact mode.
  const auto bcast = access(StepKind::read, {{0, 9}, {1, 9}});
  const auto bcast_cls = analyze::classify_affine(bcast);
  EXPECT_TRUE(bcast_cls.affine);
  EXPECT_EQ(bcast_cls.stride, 0);
}

// ------------------------------------------------------- the gcd table --

TEST(AnalyzeStride, GcdTableMatchesMeasurementForAllStrides) {
  // The paper's central number-theoretic fact: a full-warp affine step of
  // stride s on w = 32 unpadded banks serializes in exactly gcd(w, s)
  // cycles (NOT w / gcd — that counts the banks touched).  Check every
  // stride 1..32 against the closed form AND the DMM-measured replay,
  // under both the unpadded and the one-word-padded layout.
  constexpr u32 w = 32;
  const auto lanes = full_warp_lanes(w);

  Trace trace;
  trace.warp_size = w;
  trace.logical_words = 1024;  // max addr is 32 * 31 = 992
  for (i64 s = 1; s <= 32; ++s) {
    trace.steps.push_back(full_warp_read(w, 0, s));
  }

  const SharedLayout unpadded{w, 0};
  const SharedLayout padded{w, 1};
  const auto measured0 = gpusim::replay_step_costs(trace, unpadded);
  const auto measured1 = gpusim::replay_step_costs(trace, padded);

  for (std::size_t si = 0; si < trace.steps.size(); ++si) {
    const i64 s = static_cast<i64>(si) + 1;
    const auto g = std::gcd(u64{w}, static_cast<u64>(s));

    EXPECT_EQ(analyze::predict_affine_serialization(w, s, lanes), g)
        << "stride " << s;
    EXPECT_EQ(analyze::predict_affine_serialization(w, -s, lanes), g)
        << "stride " << -s;

    const auto p0 = analyze::predict_step_cost(trace.steps[si], unpadded);
    EXPECT_EQ(p0.serialization, g) << "stride " << s;
    EXPECT_TRUE(p0 == measured0[si]) << "stride " << s << " unpadded";
    // Conflicting accesses: every lane of a >= 2-deep residue class.
    EXPECT_EQ(p0.conflicting_accesses, g >= 2 ? std::size_t{w} : 0u)
        << "stride " << s;

    const auto p1 = analyze::predict_step_cost(trace.steps[si], padded);
    EXPECT_TRUE(p1 == measured1[si]) << "stride " << s << " padded";
  }

  // And the whole-trace pass agrees with itself: zero divergence.
  const auto r0 = analyze::check_strides(trace, unpadded);
  EXPECT_TRUE(r0.diagnostics.empty());
  EXPECT_EQ(r0.access_steps, 32u);
  EXPECT_EQ(r0.affine_steps, 32u);
  const auto r1 = analyze::check_strides(trace, padded);
  EXPECT_TRUE(r1.diagnostics.empty());
}

TEST(AnalyzeStride, PaddingBreaksTheWorstCaseStride) {
  // Stride 32 at w = 32: fully serialized unpadded, conflict-free with one
  // word of padding — the Dotsenko mitigation the repo models.
  const auto step = full_warp_read(32, 0, 32);
  const auto worst = analyze::predict_step_cost(step, SharedLayout{32, 0});
  EXPECT_EQ(worst.serialization, 32u);
  const auto fixed = analyze::predict_step_cost(step, SharedLayout{32, 1});
  EXPECT_EQ(fixed.serialization, 1u);
}

// -------------------------------------------- partial warps, broadcasts --

TEST(AnalyzeStride, PartialWarpsUseResidueClasses) {
  // Stride 4, p = 32 / gcd(32,4) = 8: lanes congruent mod 8 collide.
  const std::vector<u32> spread{0, 2, 5, 7};  // distinct residues -> 1
  EXPECT_EQ(analyze::predict_affine_serialization(32, 4, spread), 1u);
  const std::vector<u32> stacked{0, 8, 16};  // one residue class -> 3
  EXPECT_EQ(analyze::predict_affine_serialization(32, 4, stacked), 3u);
  const std::vector<u32> mixed{0, 8, 3};  // class sizes 2 and 1 -> 2
  EXPECT_EQ(analyze::predict_affine_serialization(32, 4, mixed), 2u);
  EXPECT_EQ(analyze::predict_affine_serialization(32, 4, {}), 0u);
}

TEST(AnalyzeStride, ZeroStrideIsTheBroadcast) {
  const auto lanes = full_warp_lanes(32);
  EXPECT_EQ(analyze::predict_affine_serialization(32, 0, lanes), 1u);

  TraceStep bcast;
  bcast.kind = StepKind::read;
  for (u32 lane = 0; lane < 32; ++lane) {
    bcast.accesses.emplace_back(lane, 17);
  }
  const auto cost = analyze::predict_step_cost(bcast, SharedLayout{32, 0});
  EXPECT_EQ(cost.serialization, 1u);
  EXPECT_EQ(cost.conflicting_accesses, 0u);
}

// ------------------------------------------------- exact-mode fallback --

TEST(AnalyzeStride, NonAffineStepsPredictExactly) {
  // Bit-reversal permutation of 0..31 — decidedly not affine, but the
  // exact per-bank counter must still match the machine.
  TraceStep step;
  step.kind = StepKind::read;
  for (u32 lane = 0; lane < 32; ++lane) {
    u32 rev = 0;
    for (u32 bit = 0; bit < 5; ++bit) {
      rev |= ((lane >> bit) & 1u) << (4 - bit);
    }
    step.accesses.emplace_back(lane, static_cast<std::size_t>(rev) * 2);
  }
  EXPECT_FALSE(analyze::classify_affine(step).affine);

  Trace trace;
  trace.warp_size = 32;
  trace.logical_words = 64;
  trace.steps.push_back(step);
  for (const u32 pad : {0u, 1u, 3u}) {
    const SharedLayout layout{32, pad};
    const auto measured = gpusim::replay_step_costs(trace, layout);
    EXPECT_TRUE(analyze::predict_step_cost(step, layout) == measured[0])
        << "pad " << pad;
    EXPECT_TRUE(analyze::check_strides(trace, layout).diagnostics.empty())
        << "pad " << pad;
  }
}

TEST(AnalyzeStride, RecorderCapturedStreamCrossChecks) {
  // Capture a live strided exchange through SharedMemory under a padded
  // layout and cross-check under that same layout: the analyzer's two
  // independent cost paths (closed form + exact) must both agree with the
  // machine that actually executed.
  gpusim::TraceRecorder rec;
  gpusim::SharedMemory shm(8, 64, 1);
  shm.attach_trace(&rec);
  shm.fill(std::vector<gpusim::word>(64, 0));
  for (const std::size_t stride : {1u, 2u, 4u, 8u}) {
    std::vector<gpusim::LaneWrite> writes;
    for (u32 lane = 0; lane < 8; ++lane) {
      writes.push_back({lane, lane * stride, gpusim::word(lane)});
    }
    shm.warp_write(writes);
    shm.barrier();
  }
  shm.attach_trace(nullptr);

  const auto trace = rec.take();
  const auto report = analyze::check_strides(trace, SharedLayout{8, 1});
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.access_steps, 4u);
  EXPECT_EQ(report.affine_steps, 4u);
  // An intentionally wrong layout width must be rejected, not mispriced.
  EXPECT_THROW((void)analyze::check_strides(trace, SharedLayout{16, 0}),
               wcm::error);
}

// ------------------------------------------- the kernel vs both oracles --

/// `steps` random steps of one warp over `words` words: about three lanes
/// in four active, reads free to share an address, writes never.
std::vector<TraceStep> random_steps(u32 w, std::size_t words,
                                    std::size_t steps, Xoshiro256& rng) {
  std::vector<TraceStep> out;
  for (std::size_t i = 0; i < steps; ++i) {
    TraceStep step;
    step.kind = rng.below(2) == 0 ? StepKind::read : StepKind::write;
    std::vector<std::size_t> written;
    for (u32 lane = 0; lane < w; ++lane) {
      if (rng.below(4) == 0) {
        continue;
      }
      std::size_t addr = rng.below(words);
      while (step.is_write() &&
             std::find(written.begin(), written.end(), addr) !=
                 written.end()) {
        addr = rng.below(words);
      }
      written.push_back(addr);
      step.accesses.emplace_back(lane, addr);
    }
    out.push_back(std::move(step));
  }
  return out;
}

std::array<std::size_t, 5> fields(const dmm::StepCost& c) {
  return {c.requests, c.serialization, c.replays, c.conflicting_accesses,
          c.max_bank_degree};
}

TEST(AnalyzeStride, KernelMatchesBothOraclesOnEveryLayout) {
  // dmm::analyze_step on the physical addresses must equal the stride
  // analyzer's prediction field by field, and its worst-bank degree the
  // symbolic exact_degree of the logical addresses — on random steps and
  // on the stride-w and stride-E steps the attacks and scans issue.
  Xoshiro256 rng(20);
  for (const u32 w : {2u, 3u, 4u, 32u, 64u}) {
    std::vector<SharedLayout> layouts;
    for (const u32 pad : {0u, 1u}) {
      layouts.push_back({w, pad, LayoutKind::linear});
      layouts.push_back({w, pad, LayoutKind::rotation});
    }
    if (is_pow2(w)) {
      layouts.push_back({w, 0, LayoutKind::xor_swizzle});
    }
    auto steps = random_steps(w, std::size_t{4} * w * w, 300, rng);
    for (const i64 stride : {i64{w}, i64{3}, i64{5}, i64{15}, i64{17}}) {
      for (const i64 base : {i64{0}, i64{1}, i64{w} + 2}) {
        steps.push_back(full_warp_read(w, base, stride));
        steps.push_back(full_warp_read(w, base, stride));
        steps.back().kind = StepKind::write;
      }
    }
    for (const SharedLayout& layout : layouts) {
      for (const TraceStep& step : steps) {
        std::vector<dmm::Request> requests;
        std::vector<i64> logical;
        for (const auto& [lane, addr] : step.accesses) {
          requests.push_back(
              {lane, layout.physical(addr),
               step.is_write() ? dmm::Op::write : dmm::Op::read, 0});
          logical.push_back(static_cast<i64>(addr));
        }
        const dmm::StepCost kernel = dmm::analyze_step(requests, w);
        const auto where = [&] {
          std::string s = std::string("w ") + std::to_string(w) + " " +
                          gpusim::to_string(layout.kind) + " pad " +
                          std::to_string(layout.pad) + " step";
          for (const auto& [lane, addr] : step.accesses) {
            s += ' ';
            s += std::to_string(lane);
            s += ':';
            s += std::to_string(addr);
          }
          return s;
        };
        EXPECT_EQ(fields(kernel),
                  fields(analyze::predict_step_cost(step, layout)))
            << where();
        EXPECT_EQ(kernel.max_bank_degree,
                  analyze::symbolic::exact_degree(layout, logical))
            << where();
      }
    }
  }
}

}  // namespace
}  // namespace wcm
