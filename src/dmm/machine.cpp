#include "dmm/machine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wcm::dmm {

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

Machine::Machine(std::size_t num_modules, std::size_t memory_words)
    : w_(num_modules), mem_(memory_words, word{0}) {
  WCM_EXPECTS(num_modules > 0, "need at least one memory module");
}

word Machine::peek(std::size_t addr) const {
  WCM_EXPECTS(addr < mem_.size(), "peek out of bounds");
  return mem_[addr];
}

void Machine::poke(std::size_t addr, word value) {
  WCM_EXPECTS(addr < mem_.size(), "poke out of bounds");
  mem_[addr] = value;
}

void Machine::fill(std::span<const word> values, std::size_t base) {
  WCM_EXPECTS(base + values.size() <= mem_.size(), "fill out of bounds");
  std::copy(values.begin(), values.end(),
            mem_.begin() + static_cast<std::ptrdiff_t>(base));
}

std::vector<word> Machine::dump(std::size_t base, std::size_t count) const {
  WCM_EXPECTS(base + count <= mem_.size(), "dump out of bounds");
  return {mem_.begin() + static_cast<std::ptrdiff_t>(base),
          mem_.begin() + static_cast<std::ptrdiff_t>(base + count)};
}

StepCost Machine::step(std::span<const Request> requests,
                       std::vector<word>* reads_out) {
  for (const Request& r : requests) {
    WCM_EXPECTS(r.proc < w_, "processor id out of range");
    WCM_EXPECTS(r.addr < mem_.size(), "request address out of bounds");
  }

  const StepCost cost = analyze_step(requests, w_);
  stats_ += cost;

  // Reads see the pre-step memory state (synchronous semantics); CREW (no
  // read+write of one address in a step, enforced by analyze_step) makes
  // the read/write order within the step immaterial.
  if (reads_out != nullptr) {
    reads_out->clear();
    for (const Request& r : requests) {
      if (r.op == Op::read) {
        reads_out->push_back(mem_[r.addr]);
      }
    }
  }
  for (const Request& r : requests) {
    if (r.op == Op::write) {
      mem_[r.addr] = r.value;
    }
  }
  return cost;
}

}  // namespace wcm::dmm
