#pragma once
// Contention analysis of one synchronous DMM step: a set of simultaneous
// memory requests, one per processor at most.  This is where every conflict
// metric in the repository is defined, in one place:
//
//  * serialization        — cycles the step takes: max over banks of the
//                           number of distinct addresses requested in that
//                           bank (a module answers one request per cycle;
//                           same-address reads broadcast, per the paper's
//                           footnote 1).
//  * replays              — serialization - 1 when any request was made;
//                           matches the "extra wavefronts" notion reported
//                           by NVIDIA profilers (l1tex bank-conflict sums).
//  * conflicting_accesses — sum over banks of the number of requests to
//                           banks that needed >= 2 cycles.  This is the
//                           paper's "total bank conflicts" count: Theorem 3
//                           constructs E^2 of these per warp per round.
//
// CREW: concurrent writes to the same address are a model violation and
// throw; concurrent reads are allowed (and broadcast for free).  A
// processor issues at most one request per step.
//
// How a step is priced.  Every step the simulator makes (at most 64
// requests on at most 64 banks) takes one sort-free pass: each request's
// bank is computed once (a mask when w is a power of two) and set in a u64
// occupancy mask.  When no bank is shared the step costs one cycle and
// returns at once (distinct banks cannot break CREW).  Otherwise each
// request joins its bank's chain of distinct addresses unless it repeats
// one (a broadcast read, or a CREW violation), and a walk over the
// occupied banks reads off the costs.  Wider steps, which only direct
// callers make, sort (bank, addr) pairs and count them in one scan.
//
// MachineStats sums StepCosts over a run of steps; gpusim::SharedMemory
// keeps one per simulated block, and trace replay builds one offline.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wcm::dmm {

/// One machine word of the simulated memory.
using word = std::int64_t;

enum class Op : unsigned char { read, write };

/// One processor's request within a synchronous step.  `value` is the
/// payload of a write and ignored for reads.
struct Request {
  std::size_t proc = 0;
  std::size_t addr = 0;
  Op op = Op::read;
  std::int64_t value = 0;
};

/// Cost of one synchronous step (see file comment for definitions).
struct StepCost {
  std::size_t requests = 0;
  std::size_t serialization = 0;
  std::size_t replays = 0;
  std::size_t conflicting_accesses = 0;
  std::size_t max_bank_degree = 0;  ///< distinct addresses in the worst bank

  StepCost& operator+=(const StepCost& o) noexcept;
  /// Field-wise equality — the static stride analyzer asserts its
  /// predicted costs equal the measured ones step by step.
  bool operator==(const StepCost& o) const noexcept = default;
};

/// Running totals over a sequence of steps.
struct MachineStats {
  std::size_t steps = 0;
  std::size_t requests = 0;
  std::size_t serialization_cycles = 0;
  std::size_t replays = 0;
  std::size_t conflicting_accesses = 0;
  std::size_t max_bank_degree = 0;

  MachineStats& operator+=(const StepCost& c) noexcept;
  MachineStats& operator+=(const MachineStats& o) noexcept;
  /// What accumulated since `before` was read off the same running totals:
  /// the counts subtract, max_bank_degree stays this side's running maximum.
  [[nodiscard]] MachineStats operator-(
      const MachineStats& before) const noexcept;
  bool operator==(const MachineStats& o) const noexcept = default;
};

/// Analyze one synchronous step on a machine with `num_banks` modules.
/// Throws wcm::contract_error on a CREW violation (two writes, or a read and
/// a write, to the same address) or when a processor id appears twice.
[[nodiscard]] StepCost analyze_step(std::span<const Request> step,
                                    std::size_t num_banks);

}  // namespace wcm::dmm
