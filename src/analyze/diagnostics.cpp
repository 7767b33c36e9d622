#include "analyze/diagnostics.hpp"

#include <ostream>

#include "util/json.hpp"

namespace wcm::analyze {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::note:
      return "note";
    case Severity::warning:
      return "warning";
    case Severity::error:
      return "error";
  }
  return "?";
}

const char* to_string(Rule r) noexcept {
  switch (r) {
    case Rule::write_read_race:
      return "write-read-race";
    case Rule::write_write_race:
      return "write-write-race";
    case Rule::read_write_race:
      return "read-write-race";
    case Rule::intra_step_crew:
      return "intra-step-crew";
    case Rule::out_of_bounds:
      return "out-of-bounds";
    case Rule::uninitialized_read:
      return "uninitialized-read";
    case Rule::duplicate_lane:
      return "duplicate-lane";
    case Rule::lane_out_of_range:
      return "lane-out-of-range";
    case Rule::stride_divergence:
      return "stride-divergence";
    case Rule::unproved_access:
      return "unproved-access";
    case Rule::symbolic_divergence:
      return "symbolic-divergence";
    case Rule::theorem_divergence:
      return "theorem-divergence";
    case Rule::barrier_divergence:
      return "barrier-divergence";
  }
  return "?";
}

namespace {

void render_lanes(std::ostream& os, const std::vector<u32>& lanes,
                  const char* open, const char* close) {
  os << open;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << lanes[i];
  }
  os << close;
}

}  // namespace

void render_text(std::ostream& os, const Diagnostic& d) {
  os << to_string(d.severity) << ": " << to_string(d.rule);
  if (d.step != Diagnostic::kNoStep) {
    os << " at step " << d.step;
  }
  if (!d.lanes.empty()) {
    render_lanes(os, d.lanes, " [lanes ", "]");
  }
  os << ": " << d.message << '\n';
}

void render_json(std::ostream& os, const Diagnostic& d) {
  os << "{\"severity\":\"" << to_string(d.severity) << "\",\"rule\":\""
     << to_string(d.rule) << "\"";
  if (d.step != Diagnostic::kNoStep) {
    os << ",\"step\":" << d.step;
  }
  render_lanes(os, d.lanes, ",\"lanes\":[", "]");
  os << ",\"message\":";
  json::write_string(os, d.message);
  os << '}';
}

}  // namespace wcm::analyze
