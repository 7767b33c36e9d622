// wcm-benchdiff — noise-aware comparison of two BENCH_*.json reports,
// the repo's first perf-trajectory gate (docs/TELEMETRY.md).
//
//   wcm-benchdiff baseline.json candidate.json
//                 [--threshold-pct p] [--min-abs-ms m]
//                 [--keys dotted,names] [--report-only]
//
// Each compared key has a known good direction (latency down, qps up);
// a candidate value is a regression only when it moves in the bad
// direction by more than --threshold-pct percent AND — for
// millisecond-scale keys — by more than --min-abs-ms absolute (a 0.05 ms
// p50 doubling to 0.1 ms is scheduler noise, not a regression).  Keys
// present in only one report are skipped with a note, so reports can
// grow fields without breaking old baselines.
//
// Exit codes: 0 within thresholds, 1 regression detected, 2 usage error,
// 3 unreadable/unparseable report.  --report-only prints the comparison
// but always exits 0 (for seeding a baseline from a live run in CI).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcm-benchdiff — noise-aware BENCH_*.json comparison (docs/TELEMETRY.md)

usage: wcm-benchdiff baseline.json candidate.json
                     [--threshold-pct p]  relative noise floor (default 25)
                     [--min-abs-ms m]     absolute floor for ms keys (0.05)
                     [--keys k1,k2,...]   dotted keys to compare (default:
                                          latency_ms.p50, latency_ms.p90,
                                          latency_ms.p99, qps, wall_seconds,
                                          cache.hit_rate)
                     [--report-only]      print the comparison, exit 0

exit codes: 0 within thresholds, 1 regression, 2 usage, 3 file error
)";

/// One compared metric: its dotted path into the report and which
/// direction is an improvement.
struct KeySpec {
  std::string path;
  bool lower_is_better = true;
  bool millisecond_scale = false;  ///< --min-abs-ms applies
};

KeySpec classify(const std::string& path) {
  KeySpec spec;
  spec.path = path;
  // Throughput-ish keys improve upward; everything else (latency, wall
  // time) improves downward.
  spec.lower_is_better =
      !(path == "qps" || path == "cache.hit_rate" || path == "ok");
  spec.millisecond_scale = path.find("_ms") != std::string::npos ||
                           path.find("latency_ms.") == 0;
  return spec;
}

std::vector<KeySpec> default_keys() {
  return {classify("latency_ms.p50"), classify("latency_ms.p90"),
          classify("latency_ms.p99"), classify("qps"),
          classify("wall_seconds"),   classify("cache.hit_rate")};
}

json::Value load_report(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw io_error("cannot open benchmark report", path);
  }
  std::ostringstream text;
  text << is.rdbuf();
  try {
    return json::parse(text.str());
  } catch (const std::exception& e) {
    throw io_error(std::string("unparseable benchmark report (") + e.what() +
                       ")",
                   path);
  }
}

/// Resolve a dotted path ("latency_ms.p99") to a number; false when any
/// segment is missing or the leaf is not a number.
bool lookup(const json::Value& doc, const std::string& path, double& out) {
  const json::Value* node = &doc;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string seg = path.substr(start, dot - start);
    if (!node->is_object()) {
      return false;
    }
    const json::Object& obj = node->as_object();
    const auto it = obj.find(seg);
    if (it == obj.end()) {
      return false;
    }
    node = &it->second;
    if (dot == std::string::npos) {
      break;
    }
    start = dot + 1;
  }
  if (!node->is_number()) {
    return false;
  }
  out = node->as_double();
  return true;
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !(v >= 0.0)) {
      throw std::invalid_argument("range");
    }
    return v;
  } catch (const std::exception&) {
    throw parse_error("invalid value '" + text + "' for " + flag +
                      " (expected a non-negative number)");
  }
}

/// Comma-separated dotted key names, none empty.
std::vector<KeySpec> parse_keys(const std::string& value) {
  std::vector<KeySpec> keys;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    const std::string key = value.substr(start, comma - start);
    if (key.empty()) {
      throw parse_error("--keys must be a comma-separated list of "
                        "non-empty dotted key names");
    }
    keys.push_back(classify(key));
    if (comma == std::string::npos) {
      return keys;
    }
    start = comma + 1;
  }
}

int run(int argc, char** argv) {
  const std::vector<std::string> tokens = cli::tokens(argc, argv, 1);
  const cli::Args args(tokens,
                       {{"threshold-pct"},
                        {"min-abs-ms"},
                        {"keys"},
                        {"report-only", false}},
                       "wcm-benchdiff", /*allow_operands=*/true);
  const std::vector<std::string>& positional = args.operands();
  if (args.has("help") ||
      std::find(positional.begin(), positional.end(), "-h") !=
          positional.end()) {
    std::cout << kUsage;
    return 0;
  }
  const double threshold_pct =
      args.has("threshold-pct")
          ? parse_double_flag("--threshold-pct", args.get("threshold-pct", ""))
          : 25.0;
  const double min_abs_ms =
      args.has("min-abs-ms")
          ? parse_double_flag("--min-abs-ms", args.get("min-abs-ms", ""))
          : 0.05;
  const std::vector<KeySpec> keys =
      args.has("keys") ? parse_keys(args.get("keys", "")) : default_keys();
  const bool report_only = args.has("report-only");
  if (positional.size() != 2) {
    throw parse_error(
        "expected exactly two positional operands: baseline.json "
        "candidate.json");
  }

  const json::Value baseline = load_report(positional[0]);
  const json::Value candidate = load_report(positional[1]);

  int regressions = 0;
  int compared = 0;
  for (const KeySpec& key : keys) {
    double base = 0.0;
    double cand = 0.0;
    const bool have_base = lookup(baseline, key.path, base);
    const bool have_cand = lookup(candidate, key.path, cand);
    if (!have_base || !have_cand) {
      std::cout << "skip   " << key.path << " (missing in "
                << (have_base ? "candidate" : "baseline") << ")\n";
      continue;
    }
    ++compared;
    const double delta = cand - base;
    const double bad_delta = key.lower_is_better ? delta : -delta;
    const double rel_pct =
        base != 0.0 ? 100.0 * bad_delta / std::fabs(base)
                    : (bad_delta > 0.0 ? 1e9 : 0.0);
    const bool over_relative = rel_pct > threshold_pct;
    const bool over_absolute =
        !key.millisecond_scale || std::fabs(delta) > min_abs_ms;
    const bool regressed = bad_delta > 0.0 && over_relative && over_absolute;
    regressions += regressed ? 1 : 0;
    std::cout << (regressed ? "REGRESS" : (bad_delta > 0.0 ? "noise " : "ok  "))
              << ' ' << key.path << " " << base << " -> " << cand << " ("
              << (rel_pct >= 0.0 ? "+" : "") << rel_pct << "% "
              << (key.lower_is_better ? "higher-is-worse" : "lower-is-worse")
              << ")\n";
  }
  if (compared == 0) {
    throw io_error("no comparable keys between the two reports",
                   positional[0] + " vs " + positional[1]);
  }
  if (regressions > 0) {
    std::cout << "benchdiff: " << regressions << " regression(s) over "
              << threshold_pct << "% (min-abs-ms=" << min_abs_ms << ")\n";
    return report_only ? 0 : 1;
  }
  std::cout << "benchdiff: " << compared << " key(s) within thresholds\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const parse_error& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
