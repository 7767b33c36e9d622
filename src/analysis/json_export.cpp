#include "analysis/json_export.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace wcm::analysis {

namespace {

void write_kernel(std::ostream& os, const gpusim::KernelStats& k) {
  os << "{\"shared_steps\":" << k.shared.steps
     << ",\"shared_serialization\":" << k.shared.serialization_cycles
     << ",\"shared_replays\":" << k.shared.replays
     << ",\"merge_read_steps\":" << k.shared_merge_reads.steps
     << ",\"merge_read_serialization\":"
     << k.shared_merge_reads.serialization_cycles
     << ",\"search_steps\":" << k.shared_search.steps
     << ",\"global_transactions\":" << k.global_transactions
     << ",\"binary_search_steps\":" << k.binary_search_steps
     << ",\"blocks\":" << k.blocks_launched << "}";
}

}  // namespace

void write_report_json(std::ostream& os, const sort::SortReport& report) {
  os << "{\"device\":";
  json::write_string(os, report.device.name);
  os << ",\"config\":{\"E\":" << report.config.E
     << ",\"b\":" << report.config.b << ",\"w\":" << report.config.w
     << ",\"padding\":" << report.config.padding << "}"
     << ",\"n\":" << report.n
     << ",\"seconds\":" << report.seconds()
     << ",\"throughput\":" << report.throughput()
     << ",\"beta1\":" << report.beta1()
     << ",\"beta2\":" << report.beta2()
     << ",\"conflicts_per_element\":" << report.conflicts_per_element()
     << ",\"rounds\":[";
  for (std::size_t i = 0; i < report.rounds.size(); ++i) {
    const auto& r = report.rounds[i];
    if (i) {
      os << ',';
    }
    os << "{\"name\":";
    json::write_string(os, r.name);
    os << ",\"seconds\":" << r.modeled_seconds << ",\"kernel\":";
    write_kernel(os, r.kernel);
    os << "}";
  }
  os << "],\"totals\":";
  write_kernel(os, report.totals);
  os << "}";
}

std::string report_to_json(const sort::SortReport& report) {
  std::ostringstream os;
  write_report_json(os, report);
  return os.str();
}

}  // namespace wcm::analysis
