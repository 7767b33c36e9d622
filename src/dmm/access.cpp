#include "dmm/access.hpp"

#include <algorithm>
#include <array>

#include "dmm/bank_matrix.hpp"
#include "util/check.hpp"

namespace wcm::dmm {

StepCost& StepCost::operator+=(const StepCost& o) noexcept {
  requests += o.requests;
  serialization += o.serialization;
  replays += o.replays;
  conflicting_accesses += o.conflicting_accesses;
  max_bank_degree = std::max(max_bank_degree, o.max_bank_degree);
  return *this;
}

MachineStats& MachineStats::operator+=(const StepCost& c) noexcept {
  steps += 1;
  requests += c.requests;
  serialization_cycles += c.serialization;
  replays += c.replays;
  conflicting_accesses += c.conflicting_accesses;
  max_bank_degree = std::max(max_bank_degree, c.max_bank_degree);
  return *this;
}

MachineStats& MachineStats::operator+=(const MachineStats& o) noexcept {
  steps += o.steps;
  requests += o.requests;
  serialization_cycles += o.serialization_cycles;
  replays += o.replays;
  conflicting_accesses += o.conflicting_accesses;
  max_bank_degree = std::max(max_bank_degree, o.max_bank_degree);
  return *this;
}

MachineStats MachineStats::operator-(
    const MachineStats& before) const noexcept {
  MachineStats d = *this;
  d.steps -= before.steps;
  d.requests -= before.requests;
  d.serialization_cycles -= before.serialization_cycles;
  d.replays -= before.replays;
  d.conflicting_accesses -= before.conflicting_accesses;
  return d;
}

namespace {

/// Throws unless every processor id in `step` is distinct: a bitmask for
/// ids below 64 (every simulated warp), a sorted copy when any id is wider.
void expect_distinct_procs(std::span<const Request> step) {
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

}  // namespace

StepCost analyze_step(std::span<const Request> step, std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");

  StepCost cost;
  cost.requests = step.size();
  if (step.empty()) {
    return cost;
  }
  expect_distinct_procs(step);

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

}  // namespace wcm::dmm
