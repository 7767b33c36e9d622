#pragma once
// The Distributed Memory Machine (Mehlhorn & Vishkin 1984; paper Sec. II-B):
// w synchronous processors, w memory modules, address x stored in module
// x mod w.  Each module answers one request per time step; contended
// requests serialize.  This Machine executes steps functionally (values
// really move) while accumulating the contention statistics defined in
// dmm/access.hpp.  It is the backing store for the GPU simulator's shared
// memory.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dmm/access.hpp"

namespace wcm::dmm {

using word = std::int64_t;

/// Running totals over all executed steps.
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
};

class Machine {
 public:
  /// A machine with `num_modules` banks and `memory_words` addressable words.
  Machine(std::size_t num_modules, std::size_t memory_words);

  [[nodiscard]] std::size_t num_modules() const noexcept { return w_; }
  [[nodiscard]] std::size_t memory_words() const noexcept {
    return mem_.size();
  }

  /// Unaccounted host-side access (setup / verification only).
  [[nodiscard]] word peek(std::size_t addr) const;
  void poke(std::size_t addr, word value);
  void fill(std::span<const word> values, std::size_t base = 0);
  [[nodiscard]] std::vector<word> dump(std::size_t base,
                                       std::size_t count) const;

  /// Execute one synchronous step.  `reads_out`, when non-null, receives the
  /// value read by each read request, in request order.  Returns the cost of
  /// the step (already accumulated into stats()).
  StepCost step(std::span<const Request> requests,
                std::vector<word>* reads_out = nullptr);

  [[nodiscard]] const MachineStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  std::size_t w_;
  std::vector<word> mem_;
  MachineStats stats_;
};

}  // namespace wcm::dmm
