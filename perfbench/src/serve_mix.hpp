#pragma once
// The service side of the benchmark: a wcmd daemon spawned with default
// settings on a private socket and a fresh data directory, an open-loop
// load generator timing every request from its due time, and the
// byte-identity check of every response against serve::execute run
// in-process on the same canonical request.

#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Rates, limits and mix shares, read from perfbench/workloads.json
/// ("serve").
struct ServeSettings {
  double light_rps = 0;
  double heavy_rps = 0;
  std::vector<double> ladder_rps;
  double latency_limit_ms = 0;
  double miss_share = 0;
  u32 hot_pool = 0;
  /// The saturating phase runs in `saturate_slices` slices, each on a
  /// fresh connection; a slice keeps `saturate_window` requests in flight
  /// and plans enough requests to last its seconds up to
  /// `saturate_plan_rps`.
  u32 saturate_slices = 0;
  u32 saturate_window = 0;
  double saturate_plan_rps = 0;
  double drain_timeout_s = 0;
};

/// A spawned wcmd.  stop() drains it and reaps it; the destructor kills
/// a daemon that was never stopped.
class Daemon {
 public:
  Daemon(const std::string& wcmd, const std::string& socket,
         const std::string& data_dir, const std::string& trace_out);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until `health` answers; throws wcm::io_error on timeout or if
  /// the daemon exited.
  void wait_healthy(double timeout_s);
  /// Drain and reap; returns the exit code and stores the daemon's peak
  /// resident set in MiB, as of just before the drain.
  int stop(double* peak_rss_mb);
  /// The daemon's peak resident set so far in MiB: VmHWM of its own image
  /// (wait4's ru_maxrss would also count the harness's pages that the
  /// forked child held before exec).
  [[nodiscard]] double peak_rss_mb() const;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// One request of a phase: its wire line (with a unique id) and whether
/// it was planned as a cache miss.
struct PlannedRequest {
  std::string id;
  std::string line;
  bool miss = false;
};

/// The seeded traffic of one run: the hot pool that is warmed during
/// setup, and each phase's request list.
struct ServePlan {
  std::vector<std::string> warm;  // request lines sent once during setup
  std::vector<PlannedRequest> light;
  std::vector<PlannedRequest> heavy;
  std::vector<std::vector<PlannedRequest>> ladder;  // one list per rung
  std::vector<std::vector<PlannedRequest>> saturate;  // one list per slice
};

/// The seeded mix: repeats from the hot pool, with `miss_share` of the
/// requests made fresh (cache misses).
[[nodiscard]] ServePlan make_plan(const ServeSettings& s, u64 seed,
                                  double light_s, double heavy_s,
                                  double rung_s, double saturate_s);

/// Outcome of one phase.
struct PhaseOutcome {
  double rate = 0;
  std::vector<double> latency_ms;  // per sent request, from its due time;
                                   // failures get a penalty value
  std::vector<double> lag_ms;      // send time minus due time (answered)
  std::vector<std::string> response;  // per request; empty = no response
  u64 sent = 0;
  u64 failed = 0;       // error, overloaded, deadline, or no response
  u64 backlog_end = 0;  // sent but unanswered when the send window closed
  u64 unsent_end = 0;   // due but not yet written when the window closed
  /// A ladder rung stops sending once its backlog exceeds the allowance.
  bool stopped = false;
  /// Responses within the limit per second, over the time from the first
  /// request's due time to the last response.  On the saturating phase
  /// this is the daemon's capacity for the mix.
  double goodput_rps = 0;
  /// Goodput in each half-second window of the send period, by answer
  /// time.
  std::vector<double> window_goodput_rps;
  /// p99 within the limit, no failure, and no growing backlog.
  [[nodiscard]] bool meets(double limit_ms) const;
  /// Requests in flight if each took the whole latency limit; a backlog
  /// beyond it is growing.
  [[nodiscard]] double backlog_allowance(double limit_ms) const;
};

/// How a phase sends its requests.
enum class Pacing {
  fixed_rate,   ///< open loop: request i falls due at i / rate
  ladder_rung,  ///< the same, stopping once the backlog is growing
  saturate,     ///< closed loop: keep saturate_window requests in flight,
                ///< each timed from its send
};

/// Send `requests` over one connection for `seconds`, then wait up to the
/// drain timeout for the remaining responses.
PhaseOutcome run_phase(const std::string& socket,
                       const std::vector<PlannedRequest>& requests,
                       double rate, double seconds, const ServeSettings& s,
                       Pacing pacing);

/// Result lines computed in-process, keyed by canonical request, with
/// per-op execute times.
struct InProcess {
  std::map<std::string, std::string> result;  // canonical -> result JSON
  std::map<std::string, std::vector<double>> execute_ms;  // op -> samples
  std::vector<double> parse_us;  // parse_request + canonical_request
};

/// Execute every distinct canonical request among `lines` in-process
/// (`threads` workers; 1 gives clean per-op timings).  With one thread,
/// each execute is recorded as a span of the layer that does its work:
/// analyze for prove/certify, runtime for campaign, serve for generate.
[[nodiscard]] InProcess execute_in_process(
    const std::vector<std::string>& lines, u32 threads, Spans& spans);

/// Compare each response with ok_response(id, in-process result); returns
/// the number of wrong responses and records each as a check failure.
u64 verify_responses(const std::vector<PlannedRequest>& requests,
                     const std::vector<std::string>& responses,
                     const InProcess& expected, Report& report);

/// One roundtrip on a fresh connection (admin ops).
[[nodiscard]] std::string roundtrip(const std::string& socket,
                                    const std::string& line);
/// Send every line on one fresh connection, then read as many response
/// lines, in the order they arrive (warm-up).
[[nodiscard]] std::vector<std::string> roundtrip_all(
    const std::string& socket, const std::vector<std::string>& lines);

/// Sum of each counter in a `metrics` op JSON result, by name.
[[nodiscard]] std::map<std::string, double> counters_of(
    const std::string& metrics_result);

}  // namespace perfbench
