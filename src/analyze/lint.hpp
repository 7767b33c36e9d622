#pragma once
// What `wcmgen analyze` runs: load each trace file, run the analyzer,
// render the findings, and fold everything into one process exit code:
//
//   0  every trace parsed and produced zero diagnostics
//   1  at least one diagnostic (any severity) was reported
//   3  at least one trace file was missing, unreadable, or corrupt
//
// 3 dominates 1: a stream the parser rejected may hide anything.  Usage
// errors (unknown flags) are the CLI's own concern and exit 2, matching
// wcmgen's established 0/2/3/4/5 contract (docs/API.md).

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"

namespace wcm::analyze {

struct LintOptions {
  AnalyzeOptions analysis;
  bool json = false;
};

/// Lint `files` (each a WCMT/WCMT2 stream); reports go to `out`, file-level
/// failures to `err`.  Returns the exit code described above.
[[nodiscard]] int run_lint(const std::vector<std::string>& files,
                           const LintOptions& options, std::ostream& out,
                           std::ostream& err);

}  // namespace wcm::analyze
