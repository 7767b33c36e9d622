#pragma once
// Diagnostics emitted by the static trace analyzer (the "kernel
// sanitizer"): every finding names a rule, a severity, the trace step it
// anchors to, and the lanes involved, so the text and JSON renderers — and
// the tests — can treat all passes uniformly.  Rules are documented in
// docs/LINT.md.

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace wcm::analyze {

enum class Severity : unsigned char { note, warning, error };

/// Which check produced a diagnostic (see docs/LINT.md for the catalogue).
enum class Rule : unsigned char {
  write_read_race,    ///< write then read, same addr, no barrier between
  write_write_race,   ///< two writes, same addr, no barrier between
  read_write_race,    ///< read then write, same addr, no barrier between
  intra_step_crew,    ///< >= 2 lanes touch one written addr in one step
  out_of_bounds,      ///< access or fill beyond the trace's logical words
  uninitialized_read, ///< read of a word no fill or write initialized
  duplicate_lane,     ///< one lane issues two requests in one step
  lane_out_of_range,  ///< lane id >= the trace's warp size
  stride_divergence,  ///< predicted serialization != measured StepCost
  unproved_access,    ///< symbolic prover could not bound a step group
  symbolic_divergence, ///< symbolic bound vs gcd/replay model disagreement
  theorem_divergence, ///< Theorem 3/9 instance failed its cross-check
  barrier_divergence, ///< a barrier not provably reached by all lanes
};

[[nodiscard]] const char* to_string(Severity s) noexcept;
[[nodiscard]] const char* to_string(Rule r) noexcept;

/// One finding.  `step` indexes Trace::steps (kNoStep for trace-level
/// findings); `lanes` lists the offending lanes in ascending order.
struct Diagnostic {
  static constexpr std::size_t kNoStep =
      std::numeric_limits<std::size_t>::max();

  Severity severity = Severity::error;
  Rule rule = Rule::write_read_race;
  std::size_t step = kNoStep;
  std::vector<u32> lanes;
  std::string message;
};

/// `wcmgen analyze`-style one-per-line rendering:
///   error: write-read-race at step 12 [lanes 0,3]: <message>
void render_text(std::ostream& os, const Diagnostic& d);

/// One JSON object per diagnostic (hand-rolled, matching
/// analysis/json_export.cpp's conventions).
void render_json(std::ostream& os, const Diagnostic& d);

}  // namespace wcm::analyze
