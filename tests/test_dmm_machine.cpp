// Tests for the functional DMM machine: value movement, stats accumulation,
// bounds and CREW enforcement.

#include <gtest/gtest.h>

#include "dmm/machine.hpp"
#include "util/check.hpp"

namespace wcm::dmm {
namespace {

TEST(Machine, PeekPokeFillDump) {
  Machine m(8, 64);
  EXPECT_EQ(m.num_modules(), 8u);
  EXPECT_EQ(m.memory_words(), 64u);
  m.poke(3, 42);
  EXPECT_EQ(m.peek(3), 42);
  const std::vector<word> vals{1, 2, 3};
  m.fill(vals, 10);
  EXPECT_EQ(m.dump(10, 3), vals);
  EXPECT_THROW((void)m.peek(64), contract_error);
  EXPECT_THROW(m.poke(64, 0), contract_error);
  EXPECT_THROW(m.fill(vals, 62), contract_error);
  EXPECT_THROW((void)m.dump(62, 3), contract_error);
}

TEST(Machine, StepReadsReturnValuesInRequestOrder) {
  Machine m(4, 16);
  for (std::size_t a = 0; a < 16; ++a) {
    m.poke(a, static_cast<word>(a * 10));
  }
  std::vector<Request> step{{0, 5, Op::read, 0},
                            {1, 2, Op::read, 0},
                            {2, 9, Op::read, 0}};
  std::vector<word> out;
  m.step(step, &out);
  EXPECT_EQ(out, (std::vector<word>{50, 20, 90}));
}

TEST(Machine, StepAppliesWrites) {
  Machine m(4, 16);
  std::vector<Request> step{{0, 1, Op::write, 11}, {1, 2, Op::write, 22}};
  m.step(step, nullptr);
  EXPECT_EQ(m.peek(1), 11);
  EXPECT_EQ(m.peek(2), 22);
}

TEST(Machine, SynchronousSemantics) {
  // A read and a write to *different* addresses in one step: the read sees
  // the pre-step value even if the write lands "first" in request order.
  Machine m(4, 16);
  m.poke(3, 7);
  std::vector<Request> step{{0, 3, Op::write, 99}, {1, 7, Op::read, 0}};
  std::vector<word> out;
  m.step(step, &out);
  EXPECT_EQ(m.peek(3), 99);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Machine, StatsAccumulateAcrossSteps) {
  Machine m(4, 16);
  std::vector<Request> conflict{{0, 0, Op::read, 0}, {1, 4, Op::read, 0}};
  m.step(conflict, nullptr);
  m.step(conflict, nullptr);
  EXPECT_EQ(m.stats().steps, 2u);
  EXPECT_EQ(m.stats().requests, 4u);
  EXPECT_EQ(m.stats().serialization_cycles, 4u);
  EXPECT_EQ(m.stats().replays, 2u);
  EXPECT_EQ(m.stats().max_bank_degree, 2u);
  m.reset_stats();
  EXPECT_EQ(m.stats().steps, 0u);
}

TEST(Machine, RejectsOutOfRangeRequests) {
  Machine m(4, 16);
  std::vector<Request> bad_proc{{4, 0, Op::read, 0}};
  EXPECT_THROW(m.step(bad_proc, nullptr), contract_error);
  std::vector<Request> bad_addr{{0, 16, Op::read, 0}};
  EXPECT_THROW(m.step(bad_addr, nullptr), contract_error);
}

TEST(Machine, CrewViolationDoesNotCorruptMemory) {
  Machine m(4, 16);
  m.poke(5, 1);
  std::vector<Request> bad{{0, 5, Op::write, 2}, {1, 5, Op::write, 3}};
  EXPECT_THROW(m.step(bad, nullptr), contract_error);
  EXPECT_EQ(m.peek(5), 1);  // analyze rejected the step before any write
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

// A phase's share of a machine's running totals: counts subtract, the
// bank degree stays the running maximum read at the phase's end.
TEST(MachineStats, DifferenceOfTotalsIsThePhasesShare) {
  Machine m(4, 16);
  const std::vector<Request> spread{{0, 0, Op::read, 0}, {1, 1, Op::read, 0}};
  const std::vector<Request> clash{{0, 0, Op::read, 0}, {1, 4, Op::read, 0},
                                   {2, 8, Op::read, 0}};
  (void)m.step(clash, nullptr);
  const MachineStats before = m.stats();
  (void)m.step(spread, nullptr);
  (void)m.step(spread, nullptr);
  const MachineStats phase = m.stats() - before;
  EXPECT_EQ(phase.steps, 2u);
  EXPECT_EQ(phase.requests, 4u);
  EXPECT_EQ(phase.serialization_cycles, 2u);
  EXPECT_EQ(phase.replays, 0u);
  EXPECT_EQ(phase.conflicting_accesses, 0u);
  EXPECT_EQ(phase.max_bank_degree, 3u);
}

}  // namespace
}  // namespace wcm::dmm
