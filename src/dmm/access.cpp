#include "dmm/access.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

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

/// Requests and banks the sort-free pass handles: one bit per bank in a
/// u64, one u8 index per request.
constexpr std::size_t kMaskWidth = 64;

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

/// The sort-free pass for a step of at most 64 requests on at most 64
/// banks; `bank(addr)` is addr mod w.  One pass sets each request's bank
/// bit in a u64 occupancy mask and its processor bit in another.  A
/// request whose bank is already occupied walks that bank's chain of
/// distinct addresses: a repeated address is a broadcast read or a CREW
/// violation, a new one joins the chain.  The chains, and per bank the
/// request and distinct-address counts, live in stack arrays indexed by
/// bank or by request.  Errors are reported after the pass, a repeated
/// processor id first.
template <class BankOf>
StepCost price_by_bank_chains(std::span<const Request> step, BankOf bank) {
  constexpr std::uint8_t kEnd = 0xff;
  std::array<std::uint8_t, kMaskWidth> head{};      // per bank
  std::array<std::uint8_t, kMaskWidth> next{};      // per request
  std::array<std::uint8_t, kMaskWidth> requests{};  // per bank
  std::array<std::uint8_t, kMaskWidth> distinct{};  // per bank
  std::uint64_t occupied = 0;
  std::uint64_t procs = 0;
  bool odd_proc = false;  // a repeated id, or one past the mask
  bool shared = false;
  bool crew = true;
  for (std::size_t i = 0; i < step.size(); ++i) {
    const std::size_t p = step[i].proc;
    const std::uint64_t pbit = p < 64 ? std::uint64_t{1} << p : 0;
    odd_proc = odd_proc || pbit == 0 || (procs & pbit) != 0;
    procs |= pbit;
    const std::size_t b = bank(step[i].addr);
    const std::uint64_t bit = std::uint64_t{1} << b;
    const auto self = static_cast<std::uint8_t>(i);
    if ((occupied & bit) == 0) {
      occupied |= bit;
      head[b] = self;
      next[i] = kEnd;
      requests[b] = 1;
      distinct[b] = 1;
      continue;
    }
    shared = true;
    ++requests[b];
    std::uint8_t j = head[b];
    while (j != kEnd && step[j].addr != step[i].addr) {
      j = next[j];
    }
    if (j != kEnd) {
      crew = crew && step[i].op == Op::read && step[j].op == Op::read;
      continue;
    }
    next[i] = head[b];
    head[b] = self;
    ++distinct[b];
  }

  if (odd_proc) {
    expect_distinct_procs(step);
  }
  WCM_EXPECTS(crew, "CREW violation: concurrent access to a written address");
  // Distinct banks: one cycle, nothing replayed, nothing conflicting.
  StepCost cost{step.size(), 1, 0, 0, 1};
  if (!shared) {
    return cost;
  }
  for (std::uint64_t m = occupied; m != 0; m &= m - 1) {
    const auto b = static_cast<std::size_t>(std::countr_zero(m));
    const std::size_t degree = distinct[b];
    cost.max_bank_degree = std::max(cost.max_bank_degree, degree);
    if (degree >= 2) {
      cost.conflicting_accesses += requests[b];
    }
  }
  cost.serialization = cost.max_bank_degree;
  cost.replays = cost.max_bank_degree - 1;
  return cost;
}

/// Steps wider than 64 requests or 64 banks (only direct callers make
/// them): sort (bank, addr) pairs, each bank computed once, and count the
/// distinct addresses of each bank, and CREW violations, in one scan.
StepCost price_by_sorting(std::span<const Request> step,
                          std::size_t num_banks) {
  struct Keyed {
    std::size_t bank;
    std::size_t addr;
    Op op;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(step.size());
  for (const Request& r : step) {
    sorted.push_back({r.addr % num_banks, r.addr, r.op});
  }
  std::sort(sorted.begin(), sorted.end(), [](const Keyed& a, const Keyed& b) {
    return a.bank != b.bank ? a.bank < b.bank : a.addr < b.addr;
  });

  StepCost cost;
  cost.requests = step.size();
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t bank_end = i;
    while (bank_end < sorted.size() &&
           sorted[bank_end].bank == sorted[i].bank) {
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
  cost.replays = cost.max_bank_degree - 1;
  return cost;
}

}  // namespace

StepCost analyze_step(std::span<const Request> step, std::size_t num_banks) {
  WCM_EXPECTS(num_banks > 0, "bank count must be positive");
  if (step.empty()) {
    return StepCost{};
  }
  if (step.size() > kMaskWidth || num_banks > kMaskWidth) {
    expect_distinct_procs(step);
    return price_by_sorting(step, num_banks);
  }
  if (std::has_single_bit(num_banks)) {
    const std::size_t mask = num_banks - 1;
    return price_by_bank_chains(
        step, [mask](std::size_t addr) { return addr & mask; });
  }
  return price_by_bank_chains(
      step, [num_banks](std::size_t addr) { return addr % num_banks; });
}

}  // namespace wcm::dmm
