// wcm-top — live terminal view of a running wcmd daemon (docs/SERVE.md).
//
//   wcm-top [--socket path|@name] [--interval-ms n] [--once] [--no-clear]
//           [--timeout-ms n]
//
// Polls the daemon's `metrics` and `health` admin ops over its socket and
// renders one frame per interval: request rate (qps, from the
// serve.requests delta between frames), p50/p99 latency (interpolated
// from the serve.latency_ms histogram buckets), cache hit rate, queue
// depth, quarantine count, shed/drop tallies, and the observability
// health counters (dropped spans, dropped event-log lines).  `--once`
// prints a single frame and exits — that is how the obs_ci gate and
// scripts consume it; `--no-clear` skips the ANSI clear for dumb
// terminals and logs.
//
// Exit codes: 0 ok, 2 usage error, 3 cannot connect / protocol error.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/math.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcm-top — live terminal view of a running wcmd daemon (docs/SERVE.md)

usage: wcm-top [--socket path|@name]  daemon socket (default @wcmd)
               [--interval-ms n]      refresh period (default 1000)
               [--once]               print one frame and exit
               [--no-clear]           no ANSI clear between frames
               [--timeout-ms n]       connect timeout (default 2000)

exit codes: 0 ok, 2 usage, 3 cannot connect / protocol error
)";

/// Result-side JSON of one successful admin roundtrip; throws io_error on
/// a protocol or daemon-side error.
json::Value admin_result(serve::Client& client, const std::string& op) {
  const std::string reply =
      client.roundtrip("{\"id\":\"top\",\"op\":\"" + op + "\"}");
  const json::Value doc = json::parse(reply);
  const json::Object& fields = doc.as_object();
  const auto ok = fields.find("ok");
  if (ok == fields.end() || !ok->second.as_bool()) {
    throw io_error("daemon refused the " + op + " request", reply);
  }
  return fields.at("result");
}

/// The parsed slice of one metrics snapshot wcm-top renders.
struct Frame {
  double requests = 0;
  double responses = 0;
  double cache_hit = 0;
  double cache_miss = 0;
  double shed = 0;
  double queue_depth = 0;
  double quarantined = 0;
  double dropped_spans = 0;
  double eventlog_dropped = 0;
  double trace_invalid = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double latency_count = 0;
  std::chrono::steady_clock::time_point at;
};

/// Linear-interpolated quantile over the serve.latency_ms buckets
/// (mirrors telemetry::bucket_quantile, which lives daemon-side).
double quantile(const std::vector<double>& bounds,
                const std::vector<double>& counts, double q) {
  double total = 0;
  for (const double c : counts) {
    total += c;
  }
  if (total <= 0 || bounds.empty()) {
    return 0.0;
  }
  const double rank = std::max(1.0, q * total);
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    if (i >= bounds.size()) {
      return bounds.back();  // overflow bucket clamps
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double inside = counts[i] > 0 ? (rank - seen) / counts[i] : 0.0;
    return lo + inside * (bounds[i] - lo);
  }
  return bounds.back();
}

Frame parse_frame(const json::Value& metrics, const json::Value& health) {
  Frame f;
  f.at = std::chrono::steady_clock::now();
  for (const json::Value& row : metrics.as_object().at("metrics").as_array()) {
    const json::Object& m = row.as_object();
    const std::string& name = m.at("name").as_string();
    const std::string& kind = m.at("kind").as_string();
    if (kind == "histogram") {
      if (name != "serve.latency_ms") {
        continue;
      }
      std::vector<double> bounds;
      std::vector<double> counts;
      for (const json::Value& b : m.at("buckets").as_array()) {
        const json::Object& bucket = b.as_object();
        const json::Value& le = bucket.at("le");
        if (le.is_number()) {
          bounds.push_back(le.as_double());
        }
        counts.push_back(bucket.at("count").as_double());
      }
      f.latency_count = m.at("count").as_double();
      f.p50_ms = quantile(bounds, counts, 0.50);
      f.p99_ms = quantile(bounds, counts, 0.99);
      continue;
    }
    const double value = m.at("value").as_double();
    // Counters may be split across label sets; sum them.
    if (name == "serve.requests") {
      f.requests += value;
    } else if (name == "serve.responses") {
      f.responses += value;
    } else if (name == "serve.cache.hit") {
      f.cache_hit += value;
    } else if (name == "serve.cache.miss") {
      f.cache_miss += value;
    } else if (name == "serve.shed") {
      f.shed += value;
    } else if (name == "runtime.quarantine.jobs") {
      f.quarantined += value;
    } else if (name == "telemetry.dropped_spans") {
      f.dropped_spans += value;
    } else if (name == "telemetry.eventlog.dropped") {
      f.eventlog_dropped += value;
    } else if (name == "serve.trace.invalid") {
      f.trace_invalid += value;
    }
  }
  f.queue_depth = health.as_object().at("queue").as_double();
  return f;
}

void render(std::ostream& os, const std::string& socket, const Frame& now,
            const Frame* prev) {
  double qps = 0.0;
  if (prev != nullptr) {
    const double dt =
        std::chrono::duration<double>(now.at - prev->at).count();
    if (dt > 0) {
      qps = (now.requests - prev->requests) / dt;
    }
  }
  const double lookups = now.cache_hit + now.cache_miss;
  const double hit_rate = lookups > 0 ? now.cache_hit / lookups : 0.0;
  os << "wcm-top " << socket << "\n"
     << "  qps        " << qps << "\n"
     << "  requests   " << now.requests << "  responses " << now.responses
     << "  shed " << now.shed << "\n"
     << "  latency    p50 " << now.p50_ms << " ms  p99 " << now.p99_ms
     << " ms  (n=" << now.latency_count << ")\n"
     << "  cache      hit-rate " << hit_rate << "  (hit " << now.cache_hit
     << " / miss " << now.cache_miss << ")\n"
     << "  queue      depth " << now.queue_depth << "\n"
     << "  quarantine " << now.quarantined << "\n"
     << "  obs-health dropped-spans " << now.dropped_spans
     << "  eventlog-dropped " << now.eventlog_dropped << "  trace-invalid "
     << now.trace_invalid << "\n";
  os.flush();
}

int run(int argc, char** argv) {
  const std::vector<std::string> tokens = cli::tokens(argc, argv, 1);
  if (std::find(tokens.begin(), tokens.end(), "-h") != tokens.end()) {
    std::cout << kUsage;
    return 0;
  }
  const cli::Args args(tokens,
                       {{"socket"},
                        {"interval-ms"},
                        {"timeout-ms"},
                        {"once", false},
                        {"no-clear", false}},
                       "wcm-top");
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string socket = args.get("socket", "@wcmd");
  const u64 interval_ms = args.get_u64("interval-ms", 1000);
  if (interval_ms == 0) {
    throw parse_error("--interval-ms must be >= 1");
  }
  const u64 timeout_ms = args.get_u64("timeout-ms", 2000);
  const bool once = args.has("once");
  const bool no_clear = args.has("no-clear");

  serve::Client client = serve::connect_with_retry(socket, timeout_ms);
  Frame prev;
  bool have_prev = false;
  for (;;) {
    const json::Value metrics = admin_result(client, "metrics");
    const json::Value health = admin_result(client, "health");
    const Frame frame = parse_frame(metrics, health);
    if (!no_clear) {
      std::cout << "\x1b[2J\x1b[H";
    }
    render(std::cout, socket, frame, have_prev ? &prev : nullptr);
    if (once) {
      return 0;
    }
    prev = frame;
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
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
