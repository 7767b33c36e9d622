// Tests for trace recording, replay (including cross-layout re-pricing and
// per-step costs), and the v1/v2 text formats with their hardened parser.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gpusim/trace.hpp"
#include "sort/blocksort.hpp"
#include "util/check.hpp"
#include "workload/inputs.hpp"

namespace wcm::gpusim {
namespace {

TEST(Trace, RecordsReadsAndWrites) {
  SharedMemory shm(32, 64);
  TraceRecorder rec(32);
  shm.attach_trace(&rec);
  const std::vector<LaneRead> reads{{0, 1}, {1, 33}};
  shm.warp_read(reads);
  const std::vector<LaneWrite> writes{{2, 5, 42}};
  shm.warp_write(writes);
  shm.attach_trace(nullptr);
  shm.warp_read(reads);  // not recorded

  const Trace& t = rec.trace();
  ASSERT_EQ(t.steps.size(), 2u);
  EXPECT_FALSE(t.steps[0].is_write());
  EXPECT_TRUE(t.steps[1].is_write());
  EXPECT_EQ(t.total_accesses(), 3u);
  EXPECT_EQ(t.steps[0].accesses[1],
            (std::pair<u32, std::size_t>{1u, 33u}));
}

TEST(Trace, AttachAdoptsGeometryAndRecordsMarkers) {
  SharedMemory shm(32, 64);
  TraceRecorder rec;
  shm.attach_trace(&rec);
  EXPECT_EQ(rec.trace().warp_size, 32u);
  EXPECT_EQ(rec.trace().logical_words, 64u);

  const std::vector<word> values{1, 2, 3, 4};
  shm.fill(values, 8);
  shm.barrier();
  shm.set_atomic_section(true);
  shm.warp_read(std::vector<LaneRead>{{0, 8}});
  shm.warp_write(std::vector<LaneWrite>{{0, 8, 7}});
  shm.set_atomic_section(false);
  shm.warp_read(std::vector<LaneRead>{{1, 9}});

  const Trace& t = rec.trace();
  ASSERT_EQ(t.steps.size(), 5u);
  EXPECT_EQ(t.steps[0].kind, StepKind::fill);
  EXPECT_EQ(t.steps[0].fill_base, 8u);
  EXPECT_EQ(t.steps[0].fill_count, 4u);
  EXPECT_EQ(t.steps[1].kind, StepKind::barrier);
  EXPECT_TRUE(t.steps[2].atomic);
  EXPECT_TRUE(t.steps[3].atomic);
  EXPECT_TRUE(t.steps[3].is_write());
  EXPECT_FALSE(t.steps[4].atomic);
  EXPECT_EQ(t.barrier_count(), 1u);
  EXPECT_EQ(t.access_steps(), 3u);
  EXPECT_EQ(t.steps[4].active_mask(), u64{1} << 1);
}

// A trace holds at most 64 lanes per step: a wider memory refuses the
// recorder up front and keeps running untraced.
TEST(Trace, RecorderRefusesWarpsWiderThan64Lanes) {
  SharedMemory shm(128, 256);
  TraceRecorder rec;
  try {
    shm.attach_trace(&rec);
    FAIL() << "a 128-lane memory accepted a trace recorder";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace warp size must be in 1..64"),
              std::string::npos)
        << e.what();
  }
  std::vector<LaneRead> reads;
  for (u32 lane = 0; lane < 128; ++lane) {
    reads.push_back({lane, lane});
  }
  shm.warp_read(reads);
  EXPECT_TRUE(rec.trace().steps.empty());
  EXPECT_EQ(shm.stats().steps, 1u);

  SharedMemory shm64(64, 128);
  shm64.attach_trace(&rec);
  EXPECT_EQ(rec.trace().warp_size, 64u);
}

TEST(Trace, ReplayReproducesLiveStats) {
  // Record a whole block sort and replay it: identical statistics.
  const wcm::sort::SortConfig cfg{5, 64, 32};
  auto tile = workload::random_permutation(cfg.tile(), 13);
  SharedMemory shm(cfg.w, cfg.tile());
  TraceRecorder rec(cfg.w);
  shm.attach_trace(&rec);
  KernelStats stats;
  wcm::sort::simulate_block_sort(shm, tile, cfg, stats);

  const auto replayed = replay_stats(rec.trace(), shm.layout());
  EXPECT_EQ(replayed.steps, shm.stats().steps);
  EXPECT_EQ(replayed.requests, shm.stats().requests);
  EXPECT_EQ(replayed.serialization_cycles,
            shm.stats().serialization_cycles);
  EXPECT_EQ(replayed.replays, shm.stats().replays);
  EXPECT_EQ(replayed.conflicting_accesses,
            shm.stats().conflicting_accesses);

  // The per-step costs are index-aligned with the steps (markers are free)
  // and sum to the aggregate replay.
  const auto costs = replay_step_costs(rec.trace(), shm.layout());
  ASSERT_EQ(costs.size(), rec.trace().steps.size());
  dmm::StepCost total;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (!rec.trace().steps[i].is_access()) {
      EXPECT_EQ(costs[i], dmm::StepCost{});
    }
    total += costs[i];
  }
  EXPECT_EQ(total.serialization, replayed.serialization_cycles);
  EXPECT_EQ(total.requests, replayed.requests);
}

TEST(Trace, CrossLayoutRepricing) {
  // The same access stream costs less under the padded layout (a stride-w
  // pattern) — offline, without re-running anything.
  Trace t;
  t.warp_size = 32;
  TraceStep step;
  for (u32 lane = 0; lane < 32; ++lane) {
    step.accesses.emplace_back(lane, static_cast<std::size_t>(lane) * 32);
  }
  t.steps.push_back(step);

  const auto unpadded = replay_stats(t, SharedLayout{32, 0});
  const auto padded = replay_stats(t, SharedLayout{32, 1});
  EXPECT_EQ(unpadded.replays, 31u);
  EXPECT_EQ(padded.replays, 0u);

  // A recorded block sort replayed under any layout costs exactly what the
  // live block sort under that layout costs: the memory keeps words at
  // logical addresses and the layout only prices them.  So a sort run with
  // `--padding p` or `--layout` answers what one recorded stream would cost
  // under that layout.
  for (const wcm::sort::SortConfig cfg :
       {wcm::sort::SortConfig{5, 64, 32}, wcm::sort::SortConfig{15, 128, 32}}) {
    // A random tile and the first tile of a two-tile worst-case input.
    for (const auto kind :
         {workload::InputKind::random, workload::InputKind::worst_case}) {
      auto input = workload::make_input(kind, 2 * cfg.tile(), cfg, 9);
      input.resize(cfg.tile());
      auto tile = input;  // simulate_block_sort sorts in place
      SharedMemory shm(cfg.w, cfg.tile());
      TraceRecorder rec(cfg.w);
      shm.attach_trace(&rec);
      KernelStats stats;
      wcm::sort::simulate_block_sort(shm, tile, cfg, stats);
      for (const auto layout_kind :
           {LayoutKind::linear, LayoutKind::xor_swizzle, LayoutKind::rotation}) {
        for (u32 pad = 0; pad < 4; ++pad) {
          const SharedLayout layout{cfg.w, pad, layout_kind};
          tile = input;
          SharedMemory live(layout, cfg.tile());
          wcm::sort::simulate_block_sort(live, tile, cfg, stats);
          const auto replayed = replay_stats(rec.trace(), layout);
          SCOPED_TRACE(cfg.to_string() + " " + to_string(layout_kind) +
                       " pad " + std::to_string(pad));
          EXPECT_EQ(replayed.steps, live.stats().steps);
          EXPECT_EQ(replayed.requests, live.stats().requests);
          EXPECT_EQ(replayed.serialization_cycles,
                    live.stats().serialization_cycles);
          EXPECT_EQ(replayed.replays, live.stats().replays);
          EXPECT_EQ(replayed.conflicting_accesses,
                    live.stats().conflicting_accesses);
          EXPECT_EQ(replayed.max_bank_degree, live.stats().max_bank_degree);
        }
      }
    }
  }
}

TEST(Trace, SerializationRoundTrip) {
  SharedMemory shm(32, 64);
  TraceRecorder rec(32);
  shm.attach_trace(&rec);
  shm.fill(std::vector<word>{1, 2}, 0);
  shm.warp_read(std::vector<LaneRead>{{0, 7}, {5, 39}});
  shm.barrier();
  shm.set_atomic_section(true);
  shm.warp_write(std::vector<LaneWrite>{{1, 2, 9}});
  shm.set_atomic_section(false);

  std::stringstream ss;
  write_trace(ss, rec.trace());
  const Trace parsed = read_trace(ss);
  ASSERT_EQ(parsed.steps.size(), 4u);
  EXPECT_EQ(parsed.warp_size, 32u);
  EXPECT_EQ(parsed.logical_words, 64u);
  EXPECT_EQ(parsed.steps[0].kind, StepKind::fill);
  EXPECT_EQ(parsed.steps[0].fill_count, 2u);
  EXPECT_EQ(parsed.steps[1].accesses, rec.trace().steps[1].accesses);
  EXPECT_EQ(parsed.steps[2].kind, StepKind::barrier);
  EXPECT_TRUE(parsed.steps[3].is_write());
  EXPECT_TRUE(parsed.steps[3].atomic);

  const auto a = replay_stats(rec.trace(), SharedLayout{32, 0});
  const auto b = replay_stats(parsed, SharedLayout{32, 0});
  EXPECT_EQ(a.serialization_cycles, b.serialization_cycles);
}

TEST(Trace, ParsesV1Streams) {
  std::istringstream v1("WCMT 32 2\nR 0:1 1:2\nW 3:7\n");
  const Trace t = read_trace(v1);
  EXPECT_EQ(t.warp_size, 32u);
  EXPECT_EQ(t.logical_words, 0u);  // unknown in v1
  ASSERT_EQ(t.steps.size(), 2u);
  EXPECT_FALSE(t.steps[0].is_write());
  EXPECT_TRUE(t.steps[1].is_write());
  EXPECT_FALSE(t.steps[1].atomic);
}

TEST(Trace, ParserRejectsGarbage) {
  std::istringstream bad1("nope");
  EXPECT_THROW((void)read_trace(bad1), parse_error);
  std::istringstream bad2("WCMT 32 2\nR 0:1\n");  // truncated
  EXPECT_THROW((void)read_trace(bad2), parse_error);
  std::istringstream bad3("WCMT 32 1\nX 0:1\n");  // bad op
  EXPECT_THROW((void)read_trace(bad3), parse_error);
  std::istringstream bad4("WCMT 32 1\nR 0-1\n");  // bad access
  EXPECT_THROW((void)read_trace(bad4), parse_error);
  std::istringstream bad5("WCMT 32 1\nR x:1\n");  // non-numeric lane
  EXPECT_THROW((void)read_trace(bad5), parse_error);
  std::istringstream bad6("WCMT 32 1\nR 0:1z\n");  // trailing garbage
  EXPECT_THROW((void)read_trace(bad6), parse_error);
}

TEST(Trace, ParserRejectsHardenedCases) {
  // Duplicate lane within one step.
  std::istringstream dup("WCMT2 32 64 1\nR 3:1 3:2\n");
  EXPECT_THROW((void)read_trace(dup), parse_error);
  // Lane id outside the declared warp.
  std::istringstream lane("WCMT2 32 64 1\nR 32:1\n");
  EXPECT_THROW((void)read_trace(lane), parse_error);
  // Trailing garbage after the declared steps.
  std::istringstream tail("WCMT2 32 64 1\nR 0:1\njunk\n");
  EXPECT_THROW((void)read_trace(tail), parse_error);
  // Trailing whitespace-only lines are fine.
  std::istringstream pad("WCMT2 32 64 1\nR 0:1\n   \n");
  EXPECT_NO_THROW((void)read_trace(pad));
  // v1 streams cannot carry v2 step kinds.
  std::istringstream atomic_v1("WCMT 32 1\nAR 0:1\n");
  EXPECT_THROW((void)read_trace(atomic_v1), parse_error);
  std::istringstream barrier_v1("WCMT 32 1\nB\n");
  EXPECT_THROW((void)read_trace(barrier_v1), parse_error);
  // Barrier lines take no operands; fills take exactly two.
  std::istringstream btail("WCMT2 32 64 1\nB 3\n");
  EXPECT_THROW((void)read_trace(btail), parse_error);
  std::istringstream fshort("WCMT2 32 64 1\nF 3\n");
  EXPECT_THROW((void)read_trace(fshort), parse_error);
  std::istringstream flong("WCMT2 32 64 1\nF 3 4 5\n");
  EXPECT_THROW((void)read_trace(flong), parse_error);
  // Warp sizes outside 1..64 are rejected up front.
  std::istringstream warp0("WCMT2 0 64 0\n");
  EXPECT_THROW((void)read_trace(warp0), parse_error);
  std::istringstream warp65("WCMT2 65 64 0\n");
  EXPECT_THROW((void)read_trace(warp65), parse_error);
}

TEST(Trace, ReplayRequiresMatchingWidth) {
  Trace t;
  t.warp_size = 32;
  EXPECT_THROW((void)replay_stats(t, SharedLayout{16, 0}), contract_error);

  // The layout is checked as SharedMemory checks it: at w = 3 the xor map
  // sends logical words 5 and 8 to one physical word, so it is refused
  // rather than priced as a broadcast.  Rotation is valid at any width.
  std::istringstream is("WCMT2 3 9 2\nF 0 9\nR 0:5 1:8\n");
  const Trace w3 = read_trace(is);
  EXPECT_THROW(
      (void)replay_stats(w3, SharedLayout{3, 0, LayoutKind::xor_swizzle}),
      config_error);
  EXPECT_EQ(
      replay_stats(w3, SharedLayout{3, 0, LayoutKind::rotation}).requests,
      2u);
}

}  // namespace
}  // namespace wcm::gpusim
