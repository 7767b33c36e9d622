// Tests for the DMM step analyzer — the single definition of every conflict
// metric in the repository — and the running totals built from its costs.

#include <gtest/gtest.h>

#include <vector>

#include "dmm/access.hpp"
#include "dmm/bank_matrix.hpp"
#include "util/check.hpp"

namespace wcm::dmm {
namespace {

std::vector<Request> reads(std::initializer_list<std::size_t> addrs) {
  std::vector<Request> v;
  std::size_t proc = 0;
  for (const std::size_t a : addrs) {
    v.push_back({proc++, a, Op::read, 0});
  }
  return v;
}

TEST(BankMatrix, AddressMapping) {
  EXPECT_EQ(bank_of(0, 32), 0u);
  EXPECT_EQ(bank_of(31, 32), 31u);
  EXPECT_EQ(bank_of(32, 32), 0u);
  EXPECT_EQ(column_of(31, 32), 0u);
  EXPECT_EQ(column_of(32, 32), 1u);
  EXPECT_EQ(addr_of(5, 3, 32), 101u);
  EXPECT_EQ(addr_of(bank_of(77, 32), column_of(77, 32), 32), 77u);
  EXPECT_THROW((void)addr_of(32, 0, 32), contract_error);
}

TEST(AnalyzeStep, EmptyStepIsFree) {
  const StepCost c = analyze_step({}, 32);
  EXPECT_EQ(c.requests, 0u);
  EXPECT_EQ(c.serialization, 0u);
  EXPECT_EQ(c.replays, 0u);
  EXPECT_EQ(c.conflicting_accesses, 0u);
}

TEST(AnalyzeStep, ConflictFreeFullWarp) {
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    step.push_back({lane, lane, Op::read, 0});  // one address per bank
  }
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 1u);
  EXPECT_EQ(c.replays, 0u);
  EXPECT_EQ(c.conflicting_accesses, 0u);
  EXPECT_EQ(c.max_bank_degree, 1u);
}

TEST(AnalyzeStep, StridedAccessSerializesFully) {
  // Stride w: every lane hits bank 0 at a distinct address.
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    step.push_back({lane, lane * 32, Op::read, 0});
  }
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 32u);
  EXPECT_EQ(c.replays, 31u);
  EXPECT_EQ(c.conflicting_accesses, 32u);
}

TEST(AnalyzeStep, BroadcastReadsAreFree) {
  // All lanes read the same address: modern GPUs broadcast (paper's
  // footnote 1).
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    step.push_back({lane, 7, Op::read, 0});
  }
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 1u);
  EXPECT_EQ(c.replays, 0u);
  EXPECT_EQ(c.conflicting_accesses, 0u);
}

TEST(AnalyzeStep, MixedBroadcastAndConflict) {
  // Lanes 0-3 read address 0; lanes 4-5 read addresses 32 and 64 (bank 0):
  // three distinct addresses in bank 0.
  const auto step = std::vector<Request>{{0, 0, Op::read, 0},
                                         {1, 0, Op::read, 0},
                                         {2, 0, Op::read, 0},
                                         {3, 0, Op::read, 0},
                                         {4, 32, Op::read, 0},
                                         {5, 64, Op::read, 0}};
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 3u);
  EXPECT_EQ(c.replays, 2u);
  EXPECT_EQ(c.conflicting_accesses, 6u);  // all six land in a >=2-cycle bank
}

TEST(AnalyzeStep, TwoWayConflictInTwoBanks) {
  const auto step = reads({0, 32, 1, 33});
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 2u);
  EXPECT_EQ(c.replays, 1u);
  EXPECT_EQ(c.conflicting_accesses, 4u);
  EXPECT_EQ(c.max_bank_degree, 2u);
}

TEST(AnalyzeStep, CrewViolationThrows) {
  // Two writes to the same address.
  std::vector<Request> two_writes{{0, 5, Op::write, 1}, {1, 5, Op::write, 2}};
  EXPECT_THROW((void)analyze_step(two_writes, 32), contract_error);
  // A read and a write of the same address in one step.
  std::vector<Request> rw{{0, 5, Op::read, 0}, {1, 5, Op::write, 2}};
  EXPECT_THROW((void)analyze_step(rw, 32), contract_error);
}

TEST(AnalyzeStep, DistinctWritesAreAllowed) {
  std::vector<Request> step{{0, 5, Op::write, 1}, {1, 6, Op::write, 2}};
  const StepCost c = analyze_step(step, 32);
  EXPECT_EQ(c.serialization, 1u);
}

TEST(AnalyzeStep, DuplicateProcessorThrows) {
  // A processor issues one request per step, whatever it requests.
  std::vector<Request> step{{0, 5, Op::read, 0}, {0, 5, Op::read, 0}};
  EXPECT_THROW((void)analyze_step(step, 32), contract_error);
  const std::vector<Request> same_bank{{0, 5, Op::read, 0},
                                       {0, 37, Op::read, 0}};
  EXPECT_THROW((void)analyze_step(same_bank, 32), contract_error);
  const std::vector<Request> other_bank{{1, 5, Op::read, 0},
                                        {0, 9, Op::read, 0},
                                        {1, 6, Op::read, 0}};
  EXPECT_THROW((void)analyze_step(other_bank, 32), contract_error);
  const std::vector<Request> two_writes{{3, 5, Op::write, 1},
                                        {3, 6, Op::write, 2}};
  EXPECT_THROW((void)analyze_step(two_writes, 32), contract_error);
  // Ids past 64 (wider than any simulated warp) are checked too.
  const std::vector<Request> wide{{70, 5, Op::read, 0}, {70, 6, Op::read, 0}};
  EXPECT_THROW((void)analyze_step(wide, 128), contract_error);
  const std::vector<Request> wide_ok{{70, 5, Op::read, 0},
                                     {71, 6, Op::read, 0}};
  EXPECT_EQ(analyze_step(wide_ok, 128).serialization, 1u);
}

// Lemma 1 (property over k and w): some set of w distinct addresses within
// k consecutive addresses achieves min(ceil(k/w), w) conflicts — take every
// w-th address; verify the analyzer reports exactly that bound.
TEST(AnalyzeStep, Lemma1WitnessAchievesBound) {
  for (const std::size_t w : {8u, 16u, 32u}) {
    for (const std::size_t k :
         {w / 2, w, 2 * w, 3 * w + 1, w * w, 2 * w * w}) {
      const std::size_t bound =
          std::min((k + w - 1) / w, w);
      std::vector<Request> step;
      // Pick addresses 0, w, 2w, ... (all bank 0) while they fit in [0, k),
      // then fill the remaining lanes with conflict-free addresses in other
      // banks.
      std::size_t lane = 0;
      for (std::size_t a = 0; a < k && lane < bound; a += w) {
        step.push_back({lane++, a, Op::read, 0});
      }
      const StepCost c = analyze_step(step, w);
      EXPECT_EQ(c.serialization, bound) << "k=" << k << " w=" << w;
    }
  }
}

TEST(StepCost, Accumulation) {
  StepCost a{4, 2, 1, 4, 2};
  const StepCost b{8, 3, 2, 6, 3};
  a += b;
  EXPECT_EQ(a.requests, 12u);
  EXPECT_EQ(a.serialization, 5u);
  EXPECT_EQ(a.replays, 3u);
  EXPECT_EQ(a.conflicting_accesses, 10u);
  EXPECT_EQ(a.max_bank_degree, 3u);
}

TEST(MachineStats, MergeOfTotals) {
  MachineStats a;
  a.steps = 1;
  a.requests = 2;
  a.serialization_cycles = 3;
  a.replays = 1;
  a.conflicting_accesses = 2;
  a.max_bank_degree = 2;
  MachineStats b = a;
  b.max_bank_degree = 5;
  a += b;
  EXPECT_EQ(a.steps, 2u);
  EXPECT_EQ(a.requests, 4u);
  EXPECT_EQ(a.serialization_cycles, 6u);
  EXPECT_EQ(a.max_bank_degree, 5u);
}

// A phase's share of running totals: counts subtract, the bank degree
// stays the running maximum read at the phase's end.
TEST(MachineStats, DifferenceOfTotalsIsThePhasesShare) {
  const std::vector<Request> spread{{0, 0, Op::read, 0}, {1, 1, Op::read, 0}};
  const std::vector<Request> clash{{0, 0, Op::read, 0}, {1, 4, Op::read, 0},
                                   {2, 8, Op::read, 0}};
  MachineStats m;
  m += analyze_step(clash, 4);
  const MachineStats before = m;
  m += analyze_step(spread, 4);
  m += analyze_step(spread, 4);
  const MachineStats phase = m - before;
  EXPECT_EQ(phase.steps, 2u);
  EXPECT_EQ(phase.requests, 4u);
  EXPECT_EQ(phase.serialization_cycles, 2u);
  EXPECT_EQ(phase.replays, 0u);
  EXPECT_EQ(phase.conflicting_accesses, 0u);
  EXPECT_EQ(phase.max_bank_degree, 3u);
}

TEST(RenderBankMatrix, LayoutAndLabels) {
  const std::string s =
      render_bank_matrix(6, 4, [](std::size_t a) { return std::to_string(a); });
  // 4 banks -> 4 lines; addresses 4 and 5 in column 1 of banks 0 and 1.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("0: 0 4"), std::string::npos);
  EXPECT_NE(s.find("1: 1 5"), std::string::npos);
  EXPECT_NE(s.find("2: 2"), std::string::npos);
}

}  // namespace
}  // namespace wcm::dmm
