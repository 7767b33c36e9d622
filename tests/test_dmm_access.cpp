// Tests for the DMM step analyzer — the single definition of every conflict
// metric in the repository — and the running totals built from its costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "dmm/access.hpp"
#include "dmm/bank_matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace wcm::dmm {
namespace {

/// The sort-and-scan kernel `analyze_step` had before its sort-free pass,
/// kept verbatim as the differential oracle: sort a copy by (bank, addr)
/// and count distinct addresses per bank in one scan.
void reference_expect_distinct_procs(std::span<const Request> step) {
  std::uint64_t seen = 0;
  bool repeated = false;
  bool wide = false;
  for (const Request& r : step) {
    const std::uint64_t bit = r.proc < 64 ? std::uint64_t{1} << r.proc : 0;
    repeated = repeated || (seen & bit) != 0;
    wide = wide || r.proc >= 64;
    seen |= bit;
  }
  WCM_EXPECTS(!repeated, "duplicate processor id in one step");
  if (wide) {
    std::vector<std::size_t> procs;
    procs.reserve(step.size());
    for (const Request& r : step) {
      procs.push_back(r.proc);
    }
    std::sort(procs.begin(), procs.end());
    WCM_EXPECTS(std::adjacent_find(procs.begin(), procs.end()) == procs.end(),
                "duplicate processor id in one step");
  }
}

StepCost reference_analyze_step(std::span<const Request> step,
                                std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");

  StepCost cost;
  cost.requests = step.size();
  if (step.empty()) {
    return cost;
  }
  reference_expect_distinct_procs(step);

  // Sort a copy by (bank, addr) so distinct addresses per bank — and CREW
  // violations — can be found with one linear scan.  Steps are at most one
  // warp wide; a stack buffer keeps this allocation-free on the hot path.
  constexpr std::size_t kStackLanes = 64;
  std::array<Request, kStackLanes> stack_buf;
  std::vector<Request> heap_buf;
  std::span<Request> sorted;
  if (step.size() <= kStackLanes) {
    std::copy(step.begin(), step.end(), stack_buf.begin());
    sorted = {stack_buf.data(), step.size()};
  } else {
    heap_buf.assign(step.begin(), step.end());
    sorted = heap_buf;
  }
  std::sort(sorted.begin(), sorted.end(),
            [num_banks](const Request& a, const Request& b) {
              const std::size_t ba = bank_of(a.addr, num_banks);
              const std::size_t bb = bank_of(b.addr, num_banks);
              if (ba != bb) {
                return ba < bb;
              }
              return a.addr < b.addr;
            });

  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::size_t bank = bank_of(sorted[i].addr, num_banks);
    std::size_t bank_end = i;
    while (bank_end < sorted.size() &&
           bank_of(sorted[bank_end].addr, num_banks) == bank) {
      ++bank_end;
    }

    // Count distinct addresses within [i, bank_end); enforce CREW.
    std::size_t distinct = 0;
    std::size_t j = i;
    while (j < bank_end) {
      const std::size_t addr = sorted[j].addr;
      std::size_t same = 0;
      bool any_write = false;
      while (j < bank_end && sorted[j].addr == addr) {
        any_write = any_write || sorted[j].op == Op::write;
        ++same;
        ++j;
      }
      WCM_EXPECTS(!any_write || same == 1,
                  "CREW violation: concurrent access to a written address");
      ++distinct;
    }

    cost.max_bank_degree = std::max(cost.max_bank_degree, distinct);
    if (distinct >= 2) {
      cost.conflicting_accesses += bank_end - i;
    }
    i = bank_end;
  }

  cost.serialization = cost.max_bank_degree;
  cost.replays = cost.max_bank_degree > 0 ? cost.max_bank_degree - 1 : 0;
  return cost;
}

/// One kernel's answer to a step: its cost, or which contract it broke
/// ("duplicate id" or "CREW"; any other contract_error text verbatim).
struct Outcome {
  StepCost cost;
  std::string error;
};

Outcome outcome_of(StepCost (*kernel)(std::span<const Request>, std::size_t),
                   std::span<const Request> step, std::size_t w) {
  try {
    return {kernel(step, w), ""};
  } catch (const contract_error& e) {
    const std::string what = e.what();
    if (what.find("duplicate processor id") != std::string::npos) {
      return {{}, "duplicate id"};
    }
    if (what.find("CREW violation") != std::string::npos) {
      return {{}, "CREW"};
    }
    return {{}, what};
  }
}

std::string describe(const StepCost& c) {
  return "{requests " + std::to_string(c.requests) + ", serialization " +
         std::to_string(c.serialization) + ", replays " +
         std::to_string(c.replays) + ", conflicting " +
         std::to_string(c.conflicting_accesses) + ", degree " +
         std::to_string(c.max_bank_degree) + "}";
}

/// A random step on `w` banks: up to min(w, 64) lanes with distinct ids
/// drawn from [0, w) (from [0, w + 64) in one step of four, so ids past
/// the 64-bit mask show up at every width), addresses in [0, 4w^2].  An
/// address is fresh, a repeat of an earlier lane's (a broadcast, or a CREW
/// violation when a write is involved), another column of an earlier
/// lane's bank, or the lane's own.  Read steps, read steps with sprinkled
/// writes and write steps with rare repeats are equally likely; one step
/// in 32 repeats a processor id.
std::vector<Request> random_step(std::size_t w, Xoshiro256& rng) {
  const std::size_t lanes = rng.below(std::min<std::size_t>(w, 64) + 1);
  std::vector<std::size_t> procs(rng.below(4) == 0 ? w + 64 : w);
  std::iota(procs.begin(), procs.end(), std::size_t{0});
  shuffle(procs, rng);
  const std::size_t kind = rng.below(3);
  std::vector<Request> step;
  for (std::size_t i = 0; i < lanes; ++i) {
    Request r{procs[i], rng.below(4 * w * w + 1), Op::read, 0};
    const bool write_step = kind == 2;
    const std::size_t repeat_odds = write_step ? 64 : 4;
    if (i > 0 && rng.below(repeat_odds) == 0) {
      r.addr = step[rng.below(i)].addr;
    } else if (i > 0 && rng.below(3) == 0) {
      r.addr = step[rng.below(i)].addr % w + w * rng.below(4 * w);
    } else if (rng.below(4) == 0) {
      r.addr = i;
    }
    if (write_step ? rng.below(16) != 0 : kind == 1 && rng.below(16) == 0) {
      r.op = Op::write;
    }
    step.push_back(r);
  }
  if (lanes >= 2 && rng.below(32) == 0) {
    step[rng.below(lanes)].proc = step[rng.below(lanes)].proc;
  }
  return step;
}

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

// The sort-free kernel against the sort-and-scan oracle: every field of
// every cost, or the same broken contract, on ~50k random steps over
// power-of-two and other widths, including widths past 64 banks (the
// sort path) and steps that break CREW or repeat a processor id.
TEST(AnalyzeStep, MatchesSortReferenceOnRandomSteps) {
  constexpr std::array<std::size_t, 15> kWidths{1,  2,  3,  4,  5,  7,  8, 16,
                                                31, 32, 33, 48, 64, 65, 128};
  Xoshiro256 rng(21);
  std::size_t fast_exits = 0;
  std::size_t conflicted = 0;
  std::size_t crew = 0;
  std::size_t duplicates = 0;
  for (std::size_t n = 0; n < 50000; ++n) {
    const std::size_t w = kWidths[n % kWidths.size()];
    const std::vector<Request> step = random_step(w, rng);
    const Outcome got = outcome_of(analyze_step, step, w);
    const Outcome want = outcome_of(reference_analyze_step, step, w);
    ASSERT_EQ(got.error, want.error) << "step " << n << ", w " << w;
    ASSERT_EQ(got.cost, want.cost)
        << "step " << n << ", w " << w << ": got " << describe(got.cost)
        << ", want " << describe(want.cost);
    fast_exits += want.error.empty() && want.cost.serialization == 1 &&
                  want.cost.requests > 0;
    conflicted += want.cost.serialization >= 2;
    crew += want.error == "CREW";
    duplicates += want.error == "duplicate id";
  }
  EXPECT_GT(fast_exits, 500u);
  EXPECT_GT(conflicted, 500u);
  EXPECT_GT(crew, 500u);
  EXPECT_GT(duplicates, 500u);
}

TEST(AnalyzeStep, ConflictFreeWarpTakesTheFastExit) {
  for (const std::size_t w : {32u, 48u, 64u}) {
    std::vector<Request> step;
    for (std::size_t lane = 0; lane < w; ++lane) {
      // Bank (lane * (w + 1)) mod w = lane: every lane its own bank.
      step.push_back({lane, lane * (w + 1), Op::write, 1});
    }
    EXPECT_EQ(analyze_step(step, w), (StepCost{w, 1, 0, 0, 1})) << "w " << w;
  }
}

TEST(AnalyzeStep, ThirtyTwoLanesOnOneAddressAreOneBroadcast) {
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    step.push_back({lane, 77, Op::read, 0});
  }
  EXPECT_EQ(analyze_step(step, 32), (StepCost{32, 1, 0, 0, 1}));
}

TEST(AnalyzeStep, ThirtyTwoAddressesInOneBankSerializeFully) {
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 32; ++lane) {
    // Bank 5, columns in a scrambled order.
    step.push_back({lane, 5 + 32 * ((lane * 7) % 32), Op::read, 0});
  }
  EXPECT_EQ(analyze_step(step, 32), (StepCost{32, 32, 31, 32, 32}));
}

TEST(AnalyzeStep, ReadAndWriteOfOneAddressAmongFreeLanesThrows) {
  std::vector<Request> step;
  for (std::size_t lane = 0; lane < 30; ++lane) {
    step.push_back({lane, lane, Op::read, 0});
  }
  step.push_back({30, 100, Op::read, 0});
  step.push_back({31, 100, Op::write, 9});
  const Outcome got = outcome_of(analyze_step, step, 32);
  EXPECT_EQ(got.error, "CREW");
}

TEST(AnalyzeStep, RepeatedIdIsReportedBeforeCrew) {
  // Processor 3 appears twice, and address 5 is written and read.
  const std::vector<Request> step{{3, 5, Op::write, 1},
                                  {1, 9, Op::read, 0},
                                  {3, 5, Op::read, 0}};
  const Outcome got = outcome_of(analyze_step, step, 32);
  EXPECT_EQ(got.error, "duplicate id");
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
