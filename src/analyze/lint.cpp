#include "analyze/lint.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace wcm::analyze {

int run_lint(const std::vector<std::string>& files,
             const LintOptions& options, std::ostream& out,
             std::ostream& err) {
  bool any_findings = false;
  bool any_bad_file = false;
  // The JSON array is written only once every trace is analyzed, so an
  // analysis that throws leaves no partial array on `out`.
  std::ostringstream json;
  json << "[";
  bool first_json = true;
  for (const std::string& file : files) {
    gpusim::Trace trace;
    try {
      std::ifstream is(file);
      if (!is) {
        throw io_error("cannot open trace file", file);
      }
      trace = gpusim::read_trace(is);
    } catch (const error& e) {
      // Unreadable or corrupt input is exit 3 regardless of which layer
      // (io_error or parse_error) rejected it.
      err << file << ": error: " << e.what() << '\n';
      any_bad_file = true;
      continue;
    }

    const AnalysisReport report = analyze_trace(trace, options.analysis);
    any_findings = any_findings || !report.clean();
    if (options.json) {
      if (!first_json) {
        json << ',';
      }
      first_json = false;
      render_json(json, report, file);
    } else {
      render_text(out, report, file);
    }
  }
  if (options.json) {
    out << json.str() << "]\n";
  }

  if (any_bad_file) {
    return 3;
  }
  return any_findings ? 1 : 0;
}

}  // namespace wcm::analyze
