#include "gpusim/stats.hpp"

#include <string>

#include "telemetry/registry.hpp"

namespace wcm::gpusim {

KernelStats& KernelStats::operator+=(const KernelStats& o) noexcept {
  shared += o.shared;
  shared_merge_reads += o.shared_merge_reads;
  shared_search += o.shared_search;
  global_transactions += o.global_transactions;
  global_requests += o.global_requests;
  binary_search_steps += o.binary_search_steps;
  warp_merge_steps += o.warp_merge_steps;
  register_compare_steps += o.register_compare_steps;
  blocks_launched += o.blocks_launched;
  elements_processed += o.elements_processed;
  return *this;
}

namespace {
double mean_over_steps(const dmm::MachineStats& m) noexcept {
  if (m.steps == 0) {
    return 0.0;
  }
  return static_cast<double>(m.serialization_cycles) /
         static_cast<double>(m.steps);
}
}  // namespace

double beta2(const KernelStats& s) noexcept {
  return mean_over_steps(s.shared_merge_reads);
}

double beta1(const KernelStats& s) noexcept {
  return mean_over_steps(s.shared_search);
}

double conflicts_per_element(const KernelStats& s) noexcept {
  if (s.elements_processed == 0) {
    return 0.0;
  }
  return static_cast<double>(s.shared.replays) /
         static_cast<double>(s.elements_processed);
}

void record_round_telemetry(const char* engine, const std::string& round,
                            u32 e, u32 pad, const KernelStats& stats) {
  if (!telemetry::enabled()) {
    return;
  }
  telemetry::Registry& reg = telemetry::registry();
  const telemetry::Labels labels = {{"engine", engine},
                                    {"round", round},
                                    {"E", std::to_string(e)},
                                    {"pad", std::to_string(pad)}};
  const auto count = [&](const char* name, std::size_t v) {
    reg.counter(name, labels).add(static_cast<u64>(v));
  };
  count("sim.round.replays", stats.shared.replays);
  count("sim.round.serialization_cycles", stats.shared.serialization_cycles);
  count("sim.round.conflicting_accesses", stats.shared.conflicting_accesses);
  count("sim.round.requests", stats.shared.requests);
  count("sim.round.merge_read.replays", stats.shared_merge_reads.replays);
  count("sim.round.merge_read.serialization_cycles",
        stats.shared_merge_reads.serialization_cycles);
  count("sim.round.search.replays", stats.shared_search.replays);
  count("sim.round.global_transactions", stats.global_transactions);
  count("sim.round.elements", stats.elements_processed);
  reg.counter("sim.rounds", {{"engine", engine}}).add(1);
  reg.histogram("sim.replays_per_round", {{"engine", engine}},
                {0, 10, 100, 1000, 10000, 100000, 1000000})
      .observe(static_cast<double>(stats.shared.replays));
}

}  // namespace wcm::gpusim
