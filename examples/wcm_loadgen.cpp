// wcm-loadgen — load generator and SLO harness for the wcmd daemon
// (docs/SERVE.md).
//
// Two modes:
//
//   script:  --script requests.jsonl [--out responses.jsonl]
//            send each line in lockstep and record the response lines —
//            the byte-compare primitive of the serve_ci gate (the same
//            script must produce byte-identical output cold, warm, and
//            at any WCM_THREADS).
//
//   mix:     --requests n [--conns c] [--rate rps] [--seed s]
//            a seeded, deterministic mix of generate/prove requests over
//            a small parameter pool (so repeats hit the response cache).
//            Closed-loop by default (each connection waits for its
//            response before sending the next); --rate switches to
//            open-loop pacing with pipelined responses.  Reports p50/p90/
//            p99/max latency, throughput, and the daemon's cache hit rate.
//
// Daemon orchestration (both modes):
//   --spawn wcmd-path   fork/exec a daemon on --socket first, wait for
//                       its socket, and reap it at the end
//   --data-dir dir      forwarded to the spawned daemon
//   --term-after n      SIGTERM the spawned daemon after n responses
//                       (the drain-under-load scenario)
//   --expect-daemon-exit n   require that exit code from the spawned
//                       daemon (default 0)
//   --drain             send a `drain` op when done (stops the daemon)
//   --require-counter name:min[,name:min...]   fetch `metrics` before
//                       draining and require each named counter sum
//   --metrics-out file  save the fetched metrics JSON
//   --out file          write the report (mix) or responses (script)
//
// Exit codes: 0 ok, 1 a check failed (--require-counter /
// --expect-daemon-exit, or any request answered with an error in script
// mode), 2 usage error, 3 connection/file error.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcm-loadgen — load generator and SLO harness for wcmd (docs/SERVE.md)

usage: wcm-loadgen [--socket path|@name]
                   (--script requests.jsonl | --requests n)
                   [--conns c] [--rate rps] [--seed s] [--tenant name]
                   [--spawn wcmd-path] [--data-dir dir] [--term-after n]
                   [--expect-daemon-exit n] [--drain]
                   [--require-counter name:min[,name:min...]]
                   [--metrics-out file] [--out file]

exit codes: 0 ok, 1 check failed, 2 usage, 3 connection/file error
)";

// ---- deterministic request mix -------------------------------------------

/// splitmix64: tiny, seedable, and identical everywhere — the mix for a
/// given (--seed, --conns, --requests) is reproducible bit-for-bit.
struct Rng {
  u64 state;
  u64 next() {
    state += 0x9e3779b97f4a7c15ULL;
    u64 z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  u64 below(u64 bound) { return next() % bound; }
};

/// One request from the pool.  The pool is deliberately small (30 distinct
/// generate cells + 2 prove cells) so a run of hundreds of requests mostly
/// re-asks answered questions — that is what exercises the cache and the
/// single-flight coalescer rather than raw compute.
std::string mix_request(Rng& rng, const std::string& tenant, u64 serial) {
  std::ostringstream os;
  std::string id(1, 'r');
  id += std::to_string(serial);
  if (rng.below(16) == 0) {
    const bool pairwise = rng.below(2) == 0;
    os << R"({"id":")" << id << R"(","op":"prove","params":{"b":64,)"
       << R"("engine":")" << (pairwise ? "pairwise" : "shearsort")
       << R"(","w":32},"tenant":")" << tenant << R"("})";
    return os.str();
  }
  static constexpr u32 kEs[] = {5, 7, 9, 11, 13};
  const u32 e = kEs[rng.below(5)];
  const u64 k = 1 + rng.below(3);
  const u64 seed = 1 + rng.below(2);
  os << R"({"id":")" << id << R"(","op":"generate","params":{"E":)" << e
     << R"(,"b":64,"k":)" << k << R"(,"seed":)" << seed
     << R"(},"tenant":")" << tenant << R"("})";
  return os.str();
}

// ---- flags ----------------------------------------------------------------

const std::vector<cli::Flag> kFlags = {
    {"socket"},     {"script"},     {"requests"},
    {"conns"},      {"rate"},       {"seed"},
    {"tenant"},     {"spawn"},      {"data-dir"},
    {"term-after"}, {"expect-daemon-exit"},
    {"drain", false},
    {"require-counter"},            {"metrics-out"},
    {"out"}};

// ---- response inspection --------------------------------------------------

bool response_ok(const std::string& line) {
  try {
    const json::Value doc = json::parse(line);
    const auto& obj = doc.as_object();
    const auto it = obj.find("ok");
    return it != obj.end() && it->second.as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

/// Sum of every counter row named `name` in a metrics response, across all
/// label sets (mirrors Snapshot::counter_total on the client side).
u64 counter_total(const json::Value& metrics, const std::string& name) {
  u64 total = 0;
  const auto& obj = metrics.as_object();
  const auto rows = obj.find("metrics");
  if (rows == obj.end()) {
    return 0;
  }
  for (const json::Value& row : rows->second.as_array()) {
    const auto& r = row.as_object();
    const auto n = r.find("name");
    const auto kind = r.find("kind");
    const auto value = r.find("value");
    if (n != r.end() && kind != r.end() && value != r.end() &&
        n->second.as_string() == name &&
        kind->second.as_string() == "counter") {
      total += value->second.as_u64();
    }
  }
  return total;
}

// ---- daemon orchestration -------------------------------------------------

struct Daemon {
  pid_t pid = -1;

  void spawn(const std::string& binary, const std::string& socket,
             const std::string& data_dir) {
    pid = ::fork();
    WCM_CHECK_TYPED(pid >= 0, io_error, "fork() failed");
    if (pid == 0) {
      std::vector<const char*> argv = {binary.c_str(), "--socket",
                                       socket.c_str(), "--quiet"};
      if (!data_dir.empty()) {
        argv.push_back("--data-dir");
        argv.push_back(data_dir.c_str());
      }
      argv.push_back(nullptr);
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
      ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
      std::cerr << "wcm-loadgen: exec('" << binary << "') failed\n";
      ::_exit(127);
    }
  }

  [[nodiscard]] int wait_exit() const {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status)) {
      return WEXITSTATUS(status);
    }
    return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
  }
};

// ---- the two modes --------------------------------------------------------

int run_script(const cli::Args& a, const std::string& socket) {
  const std::string script = a.get("script", "");
  std::ifstream in(script);
  if (!in) {
    throw io_error("cannot open script file", script);
  }
  std::ofstream out;
  const std::string out_path = a.get("out", "");
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) {
      throw io_error("cannot open output file", out_path);
    }
  }
  serve::Client client = serve::connect_with_retry(socket, 5000);
  u64 sent = 0;
  u64 errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string response = client.roundtrip(line);
    ++sent;
    if (!response_ok(response)) {
      ++errors;
    }
    if (out.is_open()) {
      out << response << "\n";
    } else {
      std::cout << response << "\n";
    }
  }
  std::cerr << "wcm-loadgen: script " << script << ": " << sent
            << " requests, " << errors << " errors\n";
  return errors == 0 ? 0 : 1;
}

struct ConnReport {
  std::vector<double> latencies_ms;
  u64 ok = 0;
  u64 errors = 0;
  u64 dropped = 0;  // EOF before a response (daemon drained mid-run)
};

/// Closed loop: send, wait, repeat.  Open loop (`interval > 0`): a pacing
/// writer plus this thread's reader half, latencies matched FIFO (the
/// protocol guarantees per-connection response order).
ConnReport run_conn(const std::string& socket, const std::string& tenant,
                    u64 seed, u64 conn_index, u64 requests,
                    double interval_s, std::atomic<u64>& responded,
                    const std::function<void()>& on_response) {
  ConnReport report;
  serve::Client client = serve::connect_with_retry(socket, 5000);
  Rng rng{seed * 0x100000001b3ULL + conn_index};
  using clock = std::chrono::steady_clock;
  std::mutex mu;
  std::vector<clock::time_point> sent_at;  // FIFO of in-flight send times
  std::atomic<bool> writer_failed{false};

  const auto record = [&](const std::string& response) {
    clock::time_point started;
    {
      std::lock_guard<std::mutex> lock(mu);
      started = sent_at.front();
      sent_at.erase(sent_at.begin());
    }
    const std::chrono::duration<double, std::milli> took =
        clock::now() - started;
    report.latencies_ms.push_back(took.count());
    if (response_ok(response)) {
      ++report.ok;
    } else {
      ++report.errors;
    }
    responded.fetch_add(1, std::memory_order_relaxed);
    on_response();
  };

  if (interval_s <= 0) {  // closed loop
    for (u64 i = 0; i < requests; ++i) {
      const std::string request = mix_request(rng, tenant, i);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent_at.push_back(clock::now());
      }
      try {
        client.send(request);
        const auto response = client.recv_line();
        if (!response) {
          report.dropped = requests - i;
          break;
        }
        record(*response);
      } catch (const io_error&) {
        report.dropped = requests - i;
        break;
      }
    }
    return report;
  }

  // Open loop: pace sends on a side thread; read pipelined responses here.
  std::thread writer([&] {
    auto next = clock::now();
    for (u64 i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(next);
      next += std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(interval_s));
      const std::string request = mix_request(rng, tenant, i);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent_at.push_back(clock::now());
      }
      try {
        client.send(request);
      } catch (const io_error&) {
        writer_failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  u64 received = 0;
  while (received < requests) {
    std::optional<std::string> response;
    try {
      response = client.recv_line();
    } catch (const io_error&) {
      response.reset();
    }
    if (!response) {
      break;
    }
    record(*response);
    ++received;
  }
  writer.join();
  report.dropped = requests - received;
  return report;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

int run_mix(const cli::Args& a, const std::string& socket, Daemon* daemon) {
  const u64 requests = a.get_u64("requests", 64, 1u << 20);
  const u64 conns = std::max<u64>(1, a.get_u64("conns", 4, 256));
  const u64 seed = a.get_u64("seed", 1);
  const u64 rate = a.get_u64("rate", 0, 1u << 20);  // 0 = closed loop
  const u64 term_after = a.get_u64("term-after", 0);
  const std::string tenant = a.get("tenant", "default");
  // Total rate split across connections; per-conn request counts split
  // with the remainder on the first connections.
  const double interval_s =
      rate == 0 ? 0.0
                : static_cast<double>(conns) / static_cast<double>(rate);

  std::atomic<u64> responded{0};
  std::atomic<bool> termed{false};
  const auto on_response = [&] {
    if (term_after == 0 || daemon == nullptr || daemon->pid <= 0) {
      return;
    }
    if (responded.load(std::memory_order_relaxed) >= term_after &&
        !termed.exchange(true, std::memory_order_relaxed)) {
      ::kill(daemon->pid, SIGTERM);
    }
  };

  using clock = std::chrono::steady_clock;
  const auto started = clock::now();
  std::vector<ConnReport> reports(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (u64 c = 0; c < conns; ++c) {
    const u64 share = requests / conns + (c < requests % conns ? 1 : 0);
    threads.emplace_back([&, c, share] {
      try {
        reports[c] = run_conn(socket, tenant, seed, c, share, interval_s,
                              responded, on_response);
      } catch (const std::exception& e) {
        std::cerr << "wcm-loadgen: conn " << c << ": " << e.what() << "\n";
        reports[c].dropped = share;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const std::chrono::duration<double> wall = clock::now() - started;

  std::vector<double> latencies;
  u64 ok = 0;
  u64 errors = 0;
  u64 dropped = 0;
  for (const ConnReport& r : reports) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    ok += r.ok;
    errors += r.errors;
    dropped += r.dropped;
  }
  std::sort(latencies.begin(), latencies.end());
  const double answered = static_cast<double>(ok + errors);
  const double qps = wall.count() > 0 ? answered / wall.count() : 0.0;

  // Fetch cache counters before any drain takes the daemon away.  Skipped
  // after --term-after: the daemon is already gone.
  u64 cache_hit = 0;
  u64 cache_miss = 0;
  bool have_metrics = false;
  std::string metrics_line;
  if (term_after == 0) {
    try {
      serve::Client admin(socket);
      metrics_line = admin.roundtrip(R"({"op":"metrics"})");
      const json::Value doc = json::parse(metrics_line);
      const auto& result = doc.as_object().at("result");
      cache_hit = counter_total(result, "serve.cache.hit");
      cache_miss = counter_total(result, "serve.cache.miss");
      have_metrics = true;
    } catch (const std::exception& e) {
      std::cerr << "wcm-loadgen: metrics fetch failed: " << e.what() << "\n";
    }
  }
  const std::string metrics_out = a.get("metrics-out", "");
  if (!metrics_out.empty() && have_metrics) {
    std::ofstream os(metrics_out);
    if (!os) {
      throw io_error("cannot open metrics output file", metrics_out);
    }
    os << metrics_line << "\n";
  }

  // The report: strict JSON, one object, stable key order (std::map).
  json::Object report;
  {
    json::Object cache;
    cache.emplace("hit", json::Value(static_cast<double>(cache_hit)));
    const double lookups = static_cast<double>(cache_hit + cache_miss);
    cache.emplace("hit_rate",
                  json::Value(lookups > 0
                                  ? static_cast<double>(cache_hit) / lookups
                                  : 0.0));
    cache.emplace("miss", json::Value(static_cast<double>(cache_miss)));
    report.emplace("cache", json::Value(std::move(cache)));
  }
  report.emplace("conns", json::Value(static_cast<double>(conns)));
  report.emplace("dropped", json::Value(static_cast<double>(dropped)));
  report.emplace("errors", json::Value(static_cast<double>(errors)));
  {
    json::Object lat;
    lat.emplace("max", json::Value(latencies.empty() ? 0.0
                                                     : latencies.back()));
    lat.emplace("p50", json::Value(percentile(latencies, 0.50)));
    lat.emplace("p90", json::Value(percentile(latencies, 0.90)));
    lat.emplace("p99", json::Value(percentile(latencies, 0.99)));
    report.emplace("latency_ms", json::Value(std::move(lat)));
  }
  report.emplace("loop", json::Value(std::string(rate == 0 ? "closed"
                                                           : "open")));
  report.emplace("ok", json::Value(static_cast<double>(ok)));
  report.emplace("qps", json::Value(qps));
  report.emplace("requests", json::Value(static_cast<double>(requests)));
  report.emplace("seed", json::Value(static_cast<double>(seed)));
  report.emplace("wall_seconds", json::Value(wall.count()));
  const std::string rendered = json::to_text(json::Value(std::move(report)));

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      throw io_error("cannot open report file", out);
    }
    os << rendered << "\n";
  }
  std::cout << rendered << "\n";

  int code = 0;
  // --require-counter name:min[,...] — each named counter sum must reach
  // its minimum (serve_ci asserts dedup/cache behavior through this).
  const std::string require = a.get("require-counter", "");
  if (!require.empty()) {
    if (!have_metrics) {
      std::cerr << "wcm-loadgen: --require-counter needs metrics (daemon "
                   "already terminated?)\n";
      code = 1;
    }
    std::istringstream specs(require);
    std::string spec;
    while (have_metrics && std::getline(specs, spec, ',')) {
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos) {
        throw parse_error("bad --require-counter entry '" + spec +
                          "' (expected name:min)");
      }
      const std::string name = spec.substr(0, colon);
      const u64 min = std::stoull(spec.substr(colon + 1));
      const json::Value doc = json::parse(metrics_line);
      const u64 total = counter_total(doc.as_object().at("result"), name);
      if (total < min) {
        std::cerr << "wcm-loadgen: counter " << name << " = " << total
                  << " < required " << min << "\n";
        code = 1;
      }
    }
  }
  return code;
}

int run(int argc, char** argv) {
  const cli::Args a(cli::tokens(argc, argv, 1), kFlags, "wcm-loadgen");
  if (a.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string socket = a.get("socket", "@wcmd");
  const bool script_mode = a.has("script");
  if (!script_mode && !a.has("requests")) {
    throw parse_error("one of --script or --requests is required");
  }

  Daemon daemon;
  const std::string spawn = a.get("spawn", "");
  if (!spawn.empty()) {
    daemon.spawn(spawn, socket, a.get("data-dir", ""));
  }

  int code = 0;
  try {
    code = script_mode ? run_script(a, socket)
                       : run_mix(a, socket, spawn.empty() ? nullptr : &daemon);
  } catch (...) {
    if (daemon.pid > 0) {
      ::kill(daemon.pid, SIGTERM);
      (void)daemon.wait_exit();
    }
    throw;
  }

  if (a.has("drain") && a.get_u64("term-after", 0) == 0) {
    try {
      serve::Client admin(socket);
      (void)admin.roundtrip(R"({"op":"drain"})");
    } catch (const io_error& e) {
      std::cerr << "wcm-loadgen: drain failed: " << e.what() << "\n";
      code = std::max(code, 1);
    }
  }
  if (daemon.pid > 0) {
    const int daemon_code = daemon.wait_exit();
    const auto expected =
        static_cast<int>(a.get_u64("expect-daemon-exit", 0, 255));
    std::cerr << "wcm-loadgen: daemon exited " << daemon_code << "\n";
    if (daemon_code != expected) {
      std::cerr << "wcm-loadgen: expected daemon exit " << expected << "\n";
      code = std::max(code, 1);
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const parse_error& e) {
    std::cerr << "usage error: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const io_error& e) {
    std::cerr << "io error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
