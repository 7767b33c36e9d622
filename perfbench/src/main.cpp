// perfbench — the repository benchmark's harness (see ../README.md).
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --root DIR [--describe STR] [--tamper-response]
//   perfbench expected [--threads N]      expected totals file on stdout
//
// `run` prints the full report (provenance, sample counts, quartiles) and
// then, as the last line of stdout, the result line; ../run.py checks that
// line against BENCHMARK.json before passing it on.  A failed correctness
// check prints the line with "correct": false and exits 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "runtime/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve_mix.hpp"
#include "sim.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace perfbench {
namespace {

namespace json = wcm::json;
namespace fs = std::filesystem;

const Clock::time_point g_process_start = Clock::now();

/// How one workload spends its measured seconds: shares of --seconds for
/// the closed-loop sim phase and the light, heavy, ladder and saturating
/// serve phases.
struct PhaseSplit {
  double sim = 0, light = 0, heavy = 0, ladder = 0, saturate = 0;
};

struct Options {
  std::string workload;
  u64 seed = 1;
  u32 seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string describe = "unknown";
  bool tamper_response = false;
};

struct Config {
  ServeSettings serve;
  PhaseSplit split;
  u32 setup_reps = 3;
};

double num(const json::Object& o, const char* key) {
  return o.at(key).as_double();
}

Config load_config(const Options& opt) {
  const auto read = [](const fs::path& p) {
    std::ifstream in(p);
    if (!in) {
      throw wcm::io_error("cannot read " + p.string());
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return json::parse(ss.str());
  };
  const fs::path root(opt.root);
  const json::Value cfg = read(root / "perfbench" / "workloads.json");
  const auto& top = cfg.as_object();
  Config c;
  const auto& s = top.at("serve").as_object();
  c.serve.light_rps = num(s, "light_rps");
  c.serve.heavy_rps = num(s, "heavy_rps");
  for (const auto& v : s.at("ladder_rps").as_array()) {
    c.serve.ladder_rps.push_back(v.as_double());
  }
  c.serve.latency_limit_ms = num(s, "latency_limit_ms");
  c.serve.miss_share = num(s, "miss_share");
  c.serve.hot_pool = static_cast<u32>(s.at("hot_pool").as_u64(80));
  c.serve.saturate_slices =
      static_cast<u32>(s.at("saturate_slices").as_u64(64));
  c.serve.saturate_window =
      static_cast<u32>(s.at("saturate_window").as_u64(128));
  c.serve.saturate_plan_rps = num(s, "saturate_plan_rps");
  c.serve.drain_timeout_s = num(s, "drain_timeout_s");
  c.setup_reps = static_cast<u32>(top.at("setup_reps").as_u64(16));
  const auto& phases = top.at("phases").as_object();
  const auto it = phases.find(opt.workload);
  if (it == phases.end()) {
    throw wcm::parse_error("unknown workload '" + opt.workload + "'");
  }
  const auto& p = it->second.as_object();
  c.split = {num(p, "sim"), num(p, "light"), num(p, "heavy"),
             num(p, "ladder"), num(p, "saturate")};
  return c;
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

u32 nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Everything a run sets up before its first timed operation.
struct Setup {
  Expected expected;
  ServePlan plan;
  std::unique_ptr<Daemon> daemon;
  fs::path data_dir;
};

double stop_daemon(Setup& st, Report& report);

/// Set-up and its repetitions: the expected totals, the seeded traffic,
/// and a daemon spawned until `health` answers with its hot pool warmed.
/// The run keeps the first repetition's set-up; later ones are built the
/// same way, between the measured phases, and torn down untimed.
class SetUps {
 public:
  SetUps(const Config& cfg, const Options& opt, fs::path out_dir,
         std::string tag, Report& report)
      : cfg_(cfg), opt_(opt), out_dir_(std::move(out_dir)),
        tag_(std::move(tag)), report_(report) {}

  /// One repetition timed from `t0`; `trace_out` is passed to the daemon.
  Setup once(Clock::time_point t0, const fs::path& trace_out);
  /// `n` more repetitions, each torn down untimed.
  void repeat(u32 n) {
    for (u32 i = 0; i < n; ++i) {
      Setup st = once(Clock::now(), fs::path());
      stop_daemon(st, report_);
    }
  }
  [[nodiscard]] const std::vector<double>& seconds() const { return seconds_; }
  /// Median seconds of each step, by name.
  [[nodiscard]] std::map<std::string, double> step_medians() const {
    std::map<std::string, double> out;
    for (const auto& [name, sample] : steps_) {
      out[name] = summarize(sample).median;
    }
    return out;
  }

 private:
  const Config& cfg_;
  const Options& opt_;
  fs::path out_dir_;
  std::string tag_;
  Report& report_;
  std::vector<double> seconds_;
  std::map<std::string, std::vector<double>> steps_;
};

struct Phases {
  PhaseOutcome light, heavy;
  /// The daemon's peak resident set after the light and heavy phases,
  /// whose requests are fixed by the seed (later phases serve as many
  /// requests as the daemon keeps up with).
  double daemon_rss_mb = 0;
  std::vector<PhaseOutcome> ladder;  // up to and including the first miss
  std::vector<PhaseOutcome> saturate;  // one per slice
};

/// Seconds of each measured phase: the workload's shares of --seconds.
struct PhaseSeconds {
  double sim = 0, light = 0, heavy = 0, rung = 0, saturate = 0;
};

PhaseSeconds phase_seconds(const Config& cfg, const Options& opt) {
  const double total = opt.seconds;
  const double rungs = static_cast<double>(
      std::max<std::size_t>(1, cfg.serve.ladder_rps.size()));
  return {cfg.split.sim * total, cfg.split.light * total,
          cfg.split.heavy * total, cfg.split.ladder * total / rungs,
          cfg.split.saturate * total};
}

Setup SetUps::once(Clock::time_point t0, const fs::path& trace_out) {
  const PhaseSeconds secs = phase_seconds(cfg_, opt_);
  const std::string rep = std::to_string(seconds_.size());
  auto mark = Clock::now();
  const auto step = [&](const char* name) {
    const auto now = Clock::now();
    steps_[name].push_back(seconds_between(mark, now));
    mark = now;
  };
  const fs::path root(opt_.root);
  Setup st;
  st.expected = load_expected(
      (root / "perfbench" / "expected" / "sim_totals.txt").string());
  step("expected");
  st.plan = make_plan(cfg_.serve, opt_.seed, secs.light, secs.heavy, secs.rung,
                      secs.saturate);
  step("plan");
  st.data_dir = out_dir_ / ("wcmd-" + tag_ + "-" + rep);
  fs::remove_all(st.data_dir);
  fs::create_directories(st.data_dir);
  st.daemon = std::make_unique<Daemon>(
      (root / ".bench_build" / "wcmd").string(),
      "@perfbench-" + tag_ + "-" + rep, st.data_dir.string(),
      trace_out.string());
  st.daemon->wait_healthy(30);
  step("spawn");
  for (const auto& r : roundtrip_all(st.daemon->socket(), st.plan.warm)) {
    if (r.find("\"ok\":true") == std::string::npos) {
      report_.fail_check("warm-up request failed: " + r.substr(0, 200));
    }
  }
  step("warm");
  seconds_.push_back(seconds_between(t0, Clock::now()));
  return st;
}

Phases run_serve_phases(const Config& cfg, const Setup& st, const Options& opt,
                        Spans& spans) {
  const PhaseSeconds secs = phase_seconds(cfg, opt);
  const auto& s = cfg.serve;
  Phases ph;
  {
    Spans::Scope span(spans, "loadgen.light", "loadgen");
    ph.light = run_phase(st.daemon->socket(), st.plan.light, s.light_rps,
                         secs.light, s, Pacing::fixed_rate);
  }
  {
    Spans::Scope span(spans, "loadgen.heavy", "loadgen");
    ph.heavy = run_phase(st.daemon->socket(), st.plan.heavy, s.heavy_rps,
                         secs.heavy, s, Pacing::fixed_rate);
  }
  ph.daemon_rss_mb = st.daemon->peak_rss_mb();
  for (std::size_t i = 0; i < s.ladder_rps.size(); ++i) {
    Spans::Scope span(spans, "loadgen.ladder", "loadgen");
    ph.ladder.push_back(run_phase(st.daemon->socket(), st.plan.ladder[i],
                                  s.ladder_rps[i], secs.rung, s,
                                  Pacing::ladder_rung));
    if (!ph.ladder.back().meets(s.latency_limit_ms)) {
      break;  // the ladder stops at the first rate that misses the limit
    }
  }
  // Each slice opens its own connection, which the daemon serves on a
  // new thread: the run's capacity is not left to where one thread landed.
  for (const auto& requests : st.plan.saturate) {
    Spans::Scope span(spans, "loadgen.saturate", "loadgen");
    ph.saturate.push_back(run_phase(st.daemon->socket(), requests,
                                    s.saturate_plan_rps,
                                    secs.saturate / s.saturate_slices, s,
                                    Pacing::saturate));
  }
  return ph;
}

/// Byte-identity check of every response the run received (warm-up
/// included) against serve::execute in-process.  Returns the in-process
/// results with their per-op timings.
InProcess verify_serve(const Setup& st, const Phases& ph, u32 threads,
                       bool tamper, Report& report, Spans& spans) {
  std::vector<std::string> lines = st.plan.warm;
  const auto collect = [&](const std::vector<PlannedRequest>& reqs,
                           const PhaseOutcome& o) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!o.response[i].empty()) {
        lines.push_back(reqs[i].line);
      }
    }
  };
  collect(st.plan.light, ph.light);
  collect(st.plan.heavy, ph.heavy);
  for (std::size_t r = 0; r < ph.ladder.size(); ++r) {
    collect(st.plan.ladder[r], ph.ladder[r]);
  }
  for (std::size_t i = 0; i < ph.saturate.size(); ++i) {
    collect(st.plan.saturate[i], ph.saturate[i]);
  }
  const InProcess ip = execute_in_process(lines, threads, spans);
  PhaseOutcome light = ph.light;
  if (tamper) {
    // Test hook: corrupt one byte of the first ok response's result.
    for (auto& r : light.response) {
      if (r.size() > 4) {
        r[r.size() - 3] = r[r.size() - 3] == '0' ? '1' : '0';
        break;
      }
    }
  }
  u64 wrong = verify_responses(st.plan.light, light.response, ip, report);
  wrong += verify_responses(st.plan.heavy, ph.heavy.response, ip, report);
  for (std::size_t r = 0; r < ph.ladder.size(); ++r) {
    wrong += verify_responses(st.plan.ladder[r], ph.ladder[r].response, ip,
                              report);
  }
  for (std::size_t i = 0; i < ph.saturate.size(); ++i) {
    wrong += verify_responses(st.plan.saturate[i], ph.saturate[i].response,
                              ip, report);
  }
  report.failed += wrong;
  return ip;
}

/// Count every phase's requests, and fail the run on any response that
/// is not ok: the fixed rates sit far below capacity, a ladder rung stops
/// sending before the daemon could shed, and the saturating phase keeps
/// fewer requests in flight than the admission queue holds, so none is
/// expected.
void account_phases(const Phases& ph, Report& report) {
  const auto add = [&](const char* phase, const PhaseOutcome& o) {
    report.attempted += o.sent;
    report.failed += o.failed;
    if (o.failed != 0) {
      report.fail_check(std::to_string(o.failed) + " of " +
                        std::to_string(o.sent) + " requests at " + phase +
                        " " + std::to_string(static_cast<long>(o.rate)) +
                        " req/s got no ok response");
    }
  };
  add("light", ph.light);
  add("heavy", ph.heavy);
  for (const auto& o : ph.ladder) {
    add("ladder", o);
  }
  for (const auto& o : ph.saturate) {
    add("saturate", o);
  }
}

/// Highest ladder rate meeting the latency limit: the goodput measured at
/// that rung.  When even the first rung misses, its goodput (requests
/// answered within the limit per second) is reported instead.
double ladder_max_rps(const Config& cfg, const Phases& ph) {
  double best = ph.ladder.empty() ? 0.0 : ph.ladder.front().goodput_rps;
  for (const auto& o : ph.ladder) {
    if (o.meets(cfg.serve.latency_limit_ms)) {
      best = o.goodput_rps;
    }
  }
  return best;
}

std::vector<double> all_lags(const Phases& ph) {
  std::vector<double> lags = ph.light.lag_ms;
  lags.insert(lags.end(), ph.heavy.lag_ms.begin(), ph.heavy.lag_ms.end());
  for (const auto& o : ph.ladder) {
    lags.insert(lags.end(), o.lag_ms.begin(), o.lag_ms.end());
  }
  return lags;
}

/// Median serve.<op> span duration per op from the daemon's exported
/// Chrome trace.
std::map<std::string, std::vector<double>> daemon_op_spans(
    const fs::path& trace_file) {
  std::map<std::string, std::vector<double>> ms;
  std::ifstream in(trace_file);
  if (!in) {
    return ms;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  for (const auto& ev : doc.as_object().at("traceEvents").as_array()) {
    const auto& o = ev.as_object();
    const std::string& name = o.at("name").as_string();
    for (const char* op : {"generate", "prove", "certify", "campaign"}) {
      if (name == std::string("serve.") + op) {
        ms[op].push_back(o.at("dur").as_double() / 1e3);
      }
    }
  }
  return ms;
}

/// Stop the daemon, check its exit, and clear its data directory; returns
/// its peak resident set in MiB.
double stop_daemon(Setup& st, Report& report) {
  double rss = 0;
  const int code = st.daemon->stop(&rss);
  if (code != 0) {
    report.fail_check("wcmd exited with code " + std::to_string(code));
  }
  fs::remove_all(st.data_dir);
  return rss;
}

/// Latency at the light and heavy rates, from due time: each percentile is
/// taken per window of 1000 consecutive requests (enough for ten beyond the
/// p99) and the median over windows kept.
std::map<std::string, double> latencies(const Phases& ph) {
  const auto pct = [](const PhaseOutcome& o, double q) {
    return windowed_quantile(o.latency_ms, 1000, q);
  };
  return {{"serve_light_p50_ms", pct(ph.light, 0.5)},
          {"serve_light_p99_ms", pct(ph.light, 0.99)},
          {"serve_heavy_p50_ms", pct(ph.heavy, 0.5)},
          {"serve_heavy_p99_ms", pct(ph.heavy, 0.99)}};
}

void add_latencies(const Phases& ph, std::map<std::string, double>& out) {
  for (const auto& [name, ms] : latencies(ph)) {
    out[name] = ms;
  }
}

/// The end-to-end metrics, tracing off.
void measure_end_to_end(const Options& opt, const Config& cfg, Setup& st,
                        SetUps& setups, Report& report) {
  // The set-up repeats after the simulator phase and after the serve
  // phases, so its median samples the host at three points of the run,
  // not one: the host's speed swings over seconds.
  const u32 more = cfg.setup_reps - 1;
  const bool serve_mix = opt.workload == "serve-mix";
  Spans spans(false);
  SimLoopOptions so;
  so.engine = opt.workload == "sim-certified" ? SimEngine::shearsort
                                              : SimEngine::pairwise;
  so.seed = opt.seed;
  so.seconds = phase_seconds(cfg, opt).sim;
  so.control = serve_mix;
  const SimLoopResult sim = run_sim_loop(so, st.expected, report);
  report.attempted += sim.cells;
  report.failed += sim.failed;
  const double sim_rss = self_peak_rss_mb();
  setups.repeat(more / 2);

  const Phases ph = run_serve_phases(cfg, st, opt, spans);
  setups.repeat(more - more / 2);
  report.detail["daemon.peak_rss_mb"] = stop_daemon(st, report);
  account_phases(ph, report);
  (void)verify_serve(st, ph, nproc(), opt.tamper_response, report, spans);

  const Summary cells = summarize(sim.ns_per_elem);
  report.add_sampled("setup_s", setups.seconds(), "s");
  report.detail["setup_first_from_process_start_s"] = setups.seconds().front();
  for (const auto& [name, s] : setups.step_medians()) {
    report.detail["setup." + name + "_s"] = s;
  }
  report.add_derived("sim_elems_per_s", sim.elements / sim.busy_s, "elem/s",
                     sim.ns_per_elem);
  report.add_derived("sim_ns_per_elem_p50", cells.median, "ns",
                     sim.ns_per_elem);
  report.add_derived("sim_ns_per_elem_p90", cells.p90, "ns", sim.ns_per_elem);
  report.add("peak_rss_mb", serve_mix ? ph.daemon_rss_mb : sim_rss, "MiB");
  // The latency percentiles are not steady enough on a shared host to be
  // gated (README.md, "Noise"); they are reported here and as per-layer
  // metrics of the traced run.
  add_latencies(ph, report.detail);
  for (const auto& o : ph.ladder) {
    const Summary rs = summarize(o.latency_ms);
    const std::string key =
        "serve.ladder." + std::to_string(static_cast<long>(o.rate));
    report.detail[key + ".p50_ms"] = rs.median;
    report.detail[key + ".p99_ms"] = rs.p99;
    report.detail[key + ".goodput_rps"] = o.goodput_rps;
    report.detail[key + ".backlog_end"] = static_cast<double>(o.backlog_end);
    report.detail[key + ".stopped"] = o.stopped ? 1.0 : 0.0;
  }
  report.detail["serve.ladder_max_rps"] = ladder_max_rps(cfg, ph);
  std::vector<double> sat_ms, windows, slice_goodput;
  double sat_sent = 0;
  for (const auto& o : ph.saturate) {
    sat_ms.insert(sat_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    windows.insert(windows.end(), o.window_goodput_rps.begin(),
                   o.window_goodput_rps.end());
    slice_goodput.push_back(o.goodput_rps);
    sat_sent += static_cast<double>(o.sent);
  }
  const Summary sat = summarize(sat_ms);
  report.detail["serve.saturate.p50_ms"] = sat.median;
  report.detail["serve.saturate.p99_ms"] = sat.p99;
  report.detail["serve.saturate.sent"] = sat_sent;
  report.detail["serve.saturate.goodput_rps_min_slice"] =
      *std::min_element(slice_goodput.begin(), slice_goodput.end());
  report.detail["serve.saturate.goodput_rps_max_slice"] =
      *std::max_element(slice_goodput.begin(), slice_goodput.end());
  // The median window over every slice: a host stall inside the phase
  // moves a few windows' goodput, not the metric.
  report.add_sampled("serve_max_rps", windows, "req/s");
  const Summary lag = summarize(all_lags(ph));
  report.detail["loadgen.lag_ms_p99"] = lag.p99;
  report.detail["sim.cells"] = static_cast<double>(sim.cells);
  if (lag.p99 > cfg.serve.latency_limit_ms) {
    report.fail_check("load generator lagged: p99 lag " +
                      std::to_string(lag.p99) + " ms");
  }
}

/// The campaign runtime on up to three of the traffic's campaign specs:
/// a scratch cache, cold then warm at 1 thread, and cold at nproc threads.
void measure_runtime(const Setup& st, const fs::path& scratch, Spans& spans,
                     Report& report) {
  std::vector<std::string> specs;
  std::vector<std::string> lines = st.plan.warm;
  for (const auto& r : st.plan.heavy) {
    lines.push_back(r.line);
  }
  for (const auto& line : lines) {
    const auto req = wcm::serve::parse_request(line);
    if (req.op == "campaign" && specs.size() < 3) {
      specs.push_back(json::to_text(req.params.at("spec")));
    }
  }
  std::vector<double> cold1, warm1, coldn;
  double cells = 0, hits = 0;
  const fs::path cache1 = scratch.string() + "-1.wcmc";
  const fs::path cachen = scratch.string() + "-n.wcmc";
  for (const auto& text : specs) {
    const auto spec = wcm::runtime::parse_campaign_spec(text);
    const auto timed = [&](u32 threads, const fs::path& cache) {
      wcm::runtime::CampaignOptions co;
      co.threads = threads;
      co.cache_path = cache;
      Spans::Scope span(spans, "runtime.run_campaign", "runtime");
      const auto t0 = Clock::now();
      const auto outcome = wcm::runtime::run_campaign(spec, co);
      return std::make_pair(seconds_between(t0, Clock::now()) * 1e3, outcome);
    };
    fs::remove(cache1);
    fs::remove(cachen);
    cold1.push_back(timed(1, cache1).first);
    const auto warm = timed(1, cache1);
    warm1.push_back(warm.first);
    cells += static_cast<double>(warm.second.cells);
    hits += static_cast<double>(warm.second.cache_hits);
    coldn.push_back(timed(nproc(), cachen).first);
  }
  fs::remove(cache1);
  fs::remove(cachen);
  const double cold = summarize(cold1).median;
  const double cold_n = summarize(coldn).median;
  report.add("runtime.campaign_cold_ms", cold, "ms");
  report.add("runtime.campaign_warm_ms", summarize(warm1).median, "ms");
  report.add("runtime.campaign_speedup_nproc", cold_n > 0 ? cold / cold_n : 0,
             "ratio");
  report.add("runtime.cache_hit_share", cells > 0 ? hits / cells : 0, "ratio");
}

/// The per-layer metrics: the traced run.
void measure_per_layer(const Options& opt, const Config& cfg, Setup& st,
                       const fs::path& out_dir, const std::string& tag,
                       const fs::path& daemon_trace, Report& report) {
  Spans spans(true);
  const double overhead = run_sim_traced(
      opt.workload == "sim-certified" ? SimEngine::shearsort
                                      : SimEngine::pairwise,
      opt.workload == "serve-mix", opt.seed, st.expected, spans, report);

  std::atomic<bool> sampling{true};
  double queue_max = 0;
  std::thread sampler([&] {
    // Queue depth over the serve phases, from the daemon's health op.
    while (sampling.load()) {
      try {
        const auto r = roundtrip(st.daemon->socket(), "{\"op\":\"health\"}");
        const auto v = json::parse(r);
        queue_max = std::max(
            queue_max,
            v.as_object().at("result").as_object().at("queue").as_double());
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const Phases ph = run_serve_phases(cfg, st, opt, spans);
  sampling = false;
  sampler.join();
  std::map<std::string, double> counters;
  {
    Spans::Scope span(spans, "telemetry.metrics_op", "telemetry");
    const std::string r = roundtrip(st.daemon->socket(), "{\"op\":\"metrics\"}");
    const auto pos = r.find("\"result\":");
    if (pos != std::string::npos && r.size() > pos + 10) {
      counters = counters_of(r.substr(pos + 9, r.size() - pos - 10));
    }
  }
  report.detail["daemon.peak_rss_mb"] = stop_daemon(st, report);
  std::map<std::string, std::vector<double>> daemon_ms;
  {
    Spans::Scope span(spans, "telemetry.trace_read_back", "telemetry");
    daemon_ms = daemon_op_spans(daemon_trace);
    fs::remove(daemon_trace);
  }
  account_phases(ph, report);
  const InProcess ip =
      verify_serve(st, ph, 1, opt.tamper_response, report, spans);
  measure_runtime(st, out_dir / ("campaign-" + tag), spans, report);

  const auto op_ms = [](const std::map<std::string, std::vector<double>>& m,
                        const char* op) {
    const auto it = m.find(op);
    return it == m.end() ? 0.0 : summarize(it->second).median;
  };
  report.add("analyze.prove_ms", op_ms(ip.execute_ms, "prove"), "ms");
  report.add("analyze.certify_ms", op_ms(ip.execute_ms, "certify"), "ms");
  report.add_sampled("serve.parse_us", ip.parse_us, "us");
  for (const char* op : {"generate", "prove", "certify", "campaign"}) {
    report.add(std::string("serve.execute_ms.") + op, op_ms(daemon_ms, op),
               "ms");
  }
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto share = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  report.add("serve.hit_share",
             share(counter("serve.cache.hit"),
                   counter("serve.cache.hit") + counter("serve.cache.miss")),
             "ratio");
  report.add("serve.dedup_share",
             share(counter("serve.dedup.hits"), counter("serve.requests")),
             "ratio");
  report.add("serve.batch_size_mean",
             share(counter("serve.jobs"), counter("serve.batches")), "count");
  report.add("serve.queue_depth_max", queue_max, "count");
  report.add("serve.shed", counter("serve.shed"), "count");
  report.add("telemetry.overhead_share", overhead, "ratio");
  for (const auto& [name, ms] : latencies(ph)) {
    report.add(name, ms, "ms");
  }
  report.add("loadgen.lag_ms_p99", summarize(all_lags(ph)).p99, "ms");
  report.add("loadgen.backlog_end",
             static_cast<double>(
                 std::max(ph.light.unsent_end, ph.heavy.unsent_end)),
             "count");
  const auto self = spans.self_seconds();
  for (const char* layer : {"core", "workload", "sort", "gpusim", "dmm",
                            "runtime", "analyze", "serve", "telemetry",
                            "loadgen"}) {
    const auto it = self.find(layer);
    report.add(std::string(layer) + ".self_ms",
               it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  report.detail["spans"] = static_cast<double>(spans.size());
  std::ofstream(out_dir / ("spans-" + opt.workload + "-" + tag + ".json"))
      << spans.chrome_trace() << '\n';
}

int run(const Options& opt) {
  const Config cfg = load_config(opt);
  Report report;
  report.workload = opt.workload;
  report.seed = opt.seed;
  report.seconds = opt.seconds;
  report.trace = opt.trace;
  report.provenance["git_describe"] = opt.describe;
  report.provenance["build_describe"] = wcm::build_describe();
  report.provenance["nproc"] = std::to_string(nproc());
  report.provenance["seed"] = std::to_string(opt.seed);
  report.provenance["compiler"] = __VERSION__;

  const fs::path out_dir = fs::path(opt.root) / ".bench_out";
  fs::create_directories(out_dir);
  const std::string tag = std::to_string(::getpid()) + "-" +
                          std::to_string(opt.seed);
  const fs::path daemon_trace =
      opt.trace ? out_dir / ("wcmd-trace-" + tag + ".json") : fs::path();
  // The first set-up is timed from process start.
  SetUps setups(cfg, opt, out_dir, tag, report);
  Setup st = setups.once(g_process_start, daemon_trace);

  if (opt.trace) {
    measure_per_layer(opt, cfg, st, out_dir, tag, daemon_trace, report);
  } else {
    measure_end_to_end(opt, cfg, st, setups, report);
  }

  std::cout << report.render_full() << '\n'
            << report.render_line() << std::endl;
  if (!report.correct) {
    for (const auto& f : report.check_failures) {
      std::cerr << "perfbench: check failed: " << f << "\n";
    }
    return 1;
  }
  return 0;
}

u64 parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long x = std::stoull(v, &pos);
    if (pos != v.size()) {
      throw std::invalid_argument(v);
    }
    return x;
  } catch (const std::exception&) {
    throw wcm::parse_error("invalid value '" + v + "' for " + flag);
  }
}

int main_impl(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench run|expected ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "expected") {
    u32 threads = nproc();
    if (argc == 4 && std::strcmp(argv[2], "--threads") == 0) {
      threads = static_cast<u32>(parse_u64("--threads", argv[3]));
    }
    write_expected(std::cout, threads);
    return 0;
  }
  if (cmd != "run") {
    std::cerr << "perfbench: unknown command '" << cmd << "'\n";
    return 2;
  }
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tamper-response") {
      opt.tamper_response = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw wcm::parse_error("flag " + a + " requires a value");
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      opt.seconds = static_cast<u32>(parse_u64(a, v));
    } else if (a == "--trace") {
      opt.trace = parse_u64(a, v) != 0;
    } else if (a == "--root") {
      opt.root = v;
    } else if (a == "--describe") {
      opt.describe = v;
    } else {
      throw wcm::parse_error("unknown flag '" + a + "'");
    }
  }
  if (opt.seconds == 0) {
    throw wcm::parse_error("--seconds must be at least 1");
  }
  return run(opt);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const wcm::parse_error& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 4;
  }
}
