// Tests for the banked shared memory: values at logical addresses, one
// priced DMM step per warp access, the bounds and CREW checks, and the
// memo that prices a data-independent phase once.

#include <gtest/gtest.h>

#include "gpusim/shared_memory.hpp"
#include "gpusim/trace.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::gpusim {
namespace {

TEST(SharedMemory, ReadReturnsValues) {
  // warp_read prices the step; the lanes' values are read with peek(),
  // and the read leaves them in place.
  SharedMemory shm(32, 64);
  for (std::size_t a = 0; a < 64; ++a) {
    shm.poke(a, static_cast<word>(100 + a));
  }
  const std::vector<LaneRead> reads{{0, 5}, {1, 37}, {2, 5}};
  shm.warp_read(reads);
  std::vector<word> vals;
  for (const LaneRead& r : reads) {
    vals.push_back(shm.peek(r.addr));
  }
  EXPECT_EQ(vals, (std::vector<word>{105, 137, 105}));
  EXPECT_EQ(shm.stats().steps, 1u);
  EXPECT_EQ(shm.stats().requests, 3u);
}

TEST(SharedMemory, WriteStores) {
  SharedMemory shm(32, 64);
  const std::vector<LaneWrite> writes{{0, 1, 11}, {1, 2, 22}};
  shm.warp_write(writes);
  EXPECT_EQ(shm.peek(1), 11);
  EXPECT_EQ(shm.peek(2), 22);
}

TEST(SharedMemory, ConflictAccounting) {
  SharedMemory shm(32, 128);
  // Lanes 0 and 1 both hit bank 3 at distinct addresses.
  const std::vector<LaneRead> reads{{0, 3}, {1, 35}};
  shm.warp_read(reads);
  EXPECT_EQ(shm.stats().steps, 1u);
  EXPECT_EQ(shm.stats().serialization_cycles, 2u);
  EXPECT_EQ(shm.stats().replays, 1u);
  shm.reset_stats();
  EXPECT_EQ(shm.stats().steps, 0u);
}

TEST(SharedMemory, StatsAccumulateAcrossSteps) {
  SharedMemory shm(4, 16);
  const std::vector<LaneRead> conflict{{0, 0}, {1, 4}};
  const std::vector<LaneWrite> spread{{0, 1, 7}, {1, 2, 8}, {2, 3, 9}};
  shm.warp_read(conflict);
  shm.warp_write(spread);
  shm.warp_read(conflict);
  EXPECT_EQ(shm.stats().steps, 3u);
  EXPECT_EQ(shm.stats().requests, 7u);
  EXPECT_EQ(shm.stats().serialization_cycles, 5u);
  EXPECT_EQ(shm.stats().replays, 2u);
  EXPECT_EQ(shm.stats().conflicting_accesses, 4u);
  EXPECT_EQ(shm.stats().max_bank_degree, 2u);
}

TEST(SharedMemory, InactiveLanesAllowed) {
  SharedMemory shm(32, 64);
  const std::vector<LaneRead> reads{{7, 0}};  // one active lane
  shm.warp_read(reads);
  EXPECT_EQ(shm.stats().requests, 1u);
}

TEST(SharedMemory, RejectsBadLanes) {
  SharedMemory shm(32, 64);
  const std::vector<LaneRead> reads{{32, 0}};
  EXPECT_THROW(shm.warp_read(reads), contract_error);
  std::vector<LaneRead> too_many(33);
  for (u32 i = 0; i < 33; ++i) {
    too_many[i] = {i, i};
  }
  EXPECT_THROW(shm.warp_read(too_many), contract_error);
  // One lane, two requests: rejected whether they share a bank or not,
  // before anything is counted or stored.
  EXPECT_THROW(shm.warp_read(std::vector<LaneRead>{{0, 5}, {0, 37}}),
               contract_error);
  EXPECT_THROW(shm.warp_read(std::vector<LaneRead>{{0, 5}, {0, 6}}),
               contract_error);
  EXPECT_THROW(shm.warp_write(std::vector<LaneWrite>{{2, 5, 1}, {2, 6, 2}}),
               contract_error);
  EXPECT_EQ(shm.stats().steps, 0u);
  EXPECT_EQ(shm.peek(5), 0);
  EXPECT_EQ(shm.peek(6), 0);
}

TEST(SharedMemory, RejectsOutOfRangeRequests) {
  SharedMemory shm(4, 16);
  EXPECT_THROW(shm.warp_read(std::vector<LaneRead>{{4, 0}}),
               simulation_error);
  EXPECT_THROW(shm.warp_read(std::vector<LaneRead>{{0, 16}}),
               simulation_error);
  EXPECT_THROW(shm.warp_write(std::vector<LaneWrite>{{0, 16, 1}}),
               simulation_error);
  EXPECT_EQ(shm.stats().steps, 0u);
}

TEST(SharedMemory, CrewViolationDoesNotCorruptMemory) {
  SharedMemory shm(4, 16);
  shm.poke(5, 1);
  const std::vector<LaneWrite> bad{{0, 5, 2}, {1, 5, 3}};
  EXPECT_THROW(shm.warp_write(bad), contract_error);
  EXPECT_EQ(shm.peek(5), 1);  // the step was rejected before any store
  EXPECT_EQ(shm.stats().steps, 0u);
}

TEST(SharedMemory, HostAccessIsBoundedByLogicalWords) {
  // Under a permuted layout the tile's last row is partial but occupies a
  // full physical row, so some addresses past the tile have a physical
  // word; host access still stops at the logical size.
  for (const SharedLayout& layout :
       {SharedLayout{8, 0}, SharedLayout{4, 1},
        SharedLayout{4, 0, LayoutKind::rotation},
        SharedLayout{4, 1, LayoutKind::xor_swizzle}}) {
    SharedMemory shm(layout, 6);
    shm.poke(5, 42);
    EXPECT_EQ(shm.peek(5), 42);
    const std::vector<word> vals{1, 2, 3};
    shm.fill(vals, 3);
    EXPECT_EQ(shm.dump(3, 3), vals);
    for (const std::size_t addr : {6u, 7u}) {
      if (layout.kind != LayoutKind::linear) {
        // 6 words at w = 4 fill two full physical rows.
        EXPECT_LT(layout.physical(addr), 2 * (layout.w + layout.pad)) << addr;
      }
      EXPECT_THROW((void)shm.peek(addr), contract_error) << addr;
      EXPECT_THROW(shm.poke(addr, 0), contract_error) << addr;
    }
    EXPECT_THROW(shm.fill(vals, 4), contract_error);
    EXPECT_THROW((void)shm.dump(4, 3), contract_error);
  }
}

TEST(SharedMemory, NonPow2WarpAllowedExceptUnderXor) {
  // Linear and rotation layouts are plain mod-w arithmetic, so any
  // positive warp size works (the w = 3 describer cross-check depends on
  // this); the xor permutation is only bijective for a power of two.
  SharedMemory shm(31, 62);
  shm.poke(33, 7);
  const std::vector<LaneRead> reads{{0, 33}, {1, 2}};
  shm.warp_read(reads);  // bank 2 twice: 33 = 31 + 2
  EXPECT_EQ(shm.stats().replays, 1u);
  EXPECT_EQ(shm.peek(33), 7);
  EXPECT_THROW(
      SharedMemory(SharedLayout{31, 0, LayoutKind::xor_swizzle}, 62),
      contract_error);
}

TEST(SharedMemory, FillAndDump) {
  SharedMemory shm(32, 64);
  const std::vector<word> vals{5, 6, 7};
  shm.fill(vals, 8);
  EXPECT_EQ(shm.dump(8, 3), vals);
}

// The memo of SharedMemory::oblivious.  A phase here reads `lanes` words of
// bank 0 (addresses 0, 8, 16, ... at w = 8): one step of that degree.
void read_bank0(SharedMemory& shm, std::size_t lanes) {
  std::vector<LaneRead> reads;
  for (u32 lane = 0; lane < lanes; ++lane) {
    reads.push_back({lane, std::size_t{8} * lane});
  }
  shm.warp_read(reads);
}

struct Phase {
  SharedMemory* shm;
  std::size_t lanes;
  int steps_runs = 0;
  int move_runs = 0;

  void run(const SharedMemory::PhaseKey& key) {
    shm->oblivious(
        key,
        [&] {
          ++steps_runs;
          read_bank0(*shm, lanes);
        },
        [&] { ++move_runs; });
  }
};

TEST(ObliviousPhase, FirstCallRunsTheSteps) {
  SharedMemory shm(8, 64);
  Phase p{&shm, 3};
  p.run({"load", 3, 0});
  EXPECT_EQ(p.steps_runs, 1);
  EXPECT_EQ(p.move_runs, 0);
  EXPECT_EQ(shm.stats().steps, 1u);
  EXPECT_EQ(shm.stats().serialization_cycles, 3u);
}

TEST(ObliviousPhase, RepeatRunsTheMoveAndAddsTheKeptStats) {
  SharedMemory shm(8, 64);
  Phase p{&shm, 3};
  p.run({"load", 3, 0});
  const dmm::MachineStats once = shm.stats();
  p.run({"load", 3, 0});
  p.run({"load", 3, 0});
  EXPECT_EQ(p.steps_runs, 1);
  EXPECT_EQ(p.move_runs, 2);
  EXPECT_EQ(shm.stats().steps, 3 * once.steps);
  EXPECT_EQ(shm.stats().requests, 3 * once.requests);
  EXPECT_EQ(shm.stats().serialization_cycles, 3 * once.serialization_cycles);
  EXPECT_EQ(shm.stats().replays, 3 * once.replays);
  EXPECT_EQ(shm.stats().conflicting_accesses, 3 * once.conflicting_accesses);
  EXPECT_EQ(shm.stats().max_bank_degree, 3u);
}

TEST(ObliviousPhase, DifferentKeyRepricesAndReplacesTheSlot) {
  SharedMemory shm(8, 64);
  Phase p{&shm, 3};
  p.run({"load", 3, 0});
  p.run({"load", 3, 1});  // another shape of the same phase
  EXPECT_EQ(p.steps_runs, 2);
  p.run({"load", 3, 0});  // its slot was replaced: priced again
  EXPECT_EQ(p.steps_runs, 3);
  EXPECT_EQ(p.move_runs, 0);
  Phase q{&shm, 2};
  q.run({"store", 3, 0});  // another phase has its own slot
  q.run({"store", 3, 0});
  p.run({"load", 3, 0});
  EXPECT_EQ(q.steps_runs, 1);
  EXPECT_EQ(q.move_runs, 1);
  EXPECT_EQ(p.steps_runs, 3);
  EXPECT_EQ(p.move_runs, 1);
  EXPECT_EQ(shm.stats().steps, 6u);
}

TEST(ObliviousPhase, RecorderOrArmedFailpointTakesTheFullPath) {
  SharedMemory shm(8, 64);
  Phase p{&shm, 3};
  p.run({"load", 3, 0});
  TraceRecorder recorder;
  shm.attach_trace(&recorder);
  p.run({"load", 3, 0});
  EXPECT_EQ(p.steps_runs, 2);
  EXPECT_EQ(recorder.trace().steps.size(), 1u);
  shm.attach_trace(nullptr);
  {
    const failpoint::scoped_arm fp("io.read.open");  // never reached here
    p.run({"load", 3, 0});
    EXPECT_EQ(p.steps_runs, 3);
  }
  p.run({"load", 3, 0});
  EXPECT_EQ(p.steps_runs, 3);
  EXPECT_EQ(p.move_runs, 1);
  EXPECT_EQ(shm.stats().steps, 4u);
}

// The kept max_bank_degree is the phase's own, not the running maximum of
// the block it was priced in.
TEST(ObliviousPhase, KeptDegreeIsThePhasesOwn) {
  SharedMemory shm(8, 64);
  read_bank0(shm, 5);
  Phase p{&shm, 2};
  p.run({"load", 2, 0});
  EXPECT_EQ(shm.stats().max_bank_degree, 5u);  // the running maximum
  shm.reset_stats();
  p.run({"load", 2, 0});
  EXPECT_EQ(p.move_runs, 1);
  EXPECT_EQ(shm.stats().max_bank_degree, 2u);
  EXPECT_EQ(shm.stats().steps, 1u);
}

TEST(ObliviousPhase, ThrowWhilePricingKeepsNothing) {
  SharedMemory shm(8, 64);
  read_bank0(shm, 4);
  int runs = 0;
  const auto failing = [&] {
    ++runs;
    read_bank0(shm, 2);
    shm.warp_read(std::vector<LaneRead>{{0, 64}});  // out of bounds
  };
  EXPECT_THROW(shm.oblivious({"load", 2, 0}, failing, [] {}),
               simulation_error);
  // As the full path leaves it: the earlier step plus the priced one.
  EXPECT_EQ(shm.stats().steps, 2u);
  EXPECT_EQ(shm.stats().requests, 6u);
  EXPECT_EQ(shm.stats().serialization_cycles, 6u);
  EXPECT_EQ(shm.stats().max_bank_degree, 4u);
  EXPECT_THROW(shm.oblivious({"load", 2, 0}, failing, [] {}),
               simulation_error);
  EXPECT_EQ(runs, 2);  // nothing was kept
}

}  // namespace
}  // namespace wcm::gpusim
