#include "serve_mix.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>
#include <unordered_map>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace json = wcm::json;

int connect_socket(const std::string& socket) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const bool abstract = !socket.empty() && socket.front() == '@';
  const std::string path = abstract ? socket.substr(1) : socket;
  if (path.empty() || path.size() + 1 >= sizeof(addr.sun_path)) {
    throw wcm::io_error("bad socket name '" + socket + "'");
  }
  socklen_t len = 0;
  if (abstract) {
    addr.sun_path[0] = '\0';
    std::memcpy(addr.sun_path + 1, path.data(), path.size());
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                 path.size());
  } else {
    std::memcpy(addr.sun_path, path.data(), path.size() + 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 path.size() + 1);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw wcm::io_error(std::string("socket(): ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw wcm::io_error("connect " + socket + ": " + why);
  }
  return fd;
}

/// The id of a response line: the fast path reads the leading `"id"` of an
/// ok response; error responses (whose first key is "error") are parsed.
std::string response_id(const std::string& line) {
  static const std::string prefix = "{\"id\":\"";
  if (line.compare(0, prefix.size(), prefix) == 0) {
    const auto end = line.find('"', prefix.size());
    if (end != std::string::npos) {
      return line.substr(prefix.size(), end - prefix.size());
    }
  }
  try {
    const json::Value v = json::parse(line);
    const auto& o = v.as_object();
    const auto it = o.find("id");
    return it == o.end() ? std::string() : it->second.as_string();
  } catch (const std::exception&) {
    return {};
  }
}

bool response_ok(const std::string& line, const std::string& id) {
  const std::string prefix = "{\"id\":\"" + id + "\",\"ok\":true,";
  return line.compare(0, prefix.size(), prefix) == 0;
}

std::string with_id(const std::string& id, const std::string& body) {
  return "{\"id\":\"" + id + "\"," + body.substr(1);
}

// ---- the seeded request mix ----------------------------------------------

const char* const kProveEngines[] = {"blocksort", "block-merge", "pairwise",
                                     "multiway",  "bitonic",     "radix",
                                     "scan",      "shearsort"};
// The xor layout is left out of the misses: proving under it costs up to
// 20x more than under the others, and a few such requests would decide
// every p99 on their own.
const char* const kLayouts[] = {"linear", "rotation"};

class MixSource {
 public:
  MixSource(u64 seed, u32 hot_pool) : rng_(wcm::fork_seed(seed, 0x5e7eu)) {
    // Hot pool: small generate requests, distinct, drawn from a fixed
    // universe of 80 (E, b, k, seed) combinations.
    std::set<std::string> seen;
    while (hot_.size() < hot_pool && seen.size() < 80) {
      const u32 E = 5 + 2 * static_cast<u32>(rng_.below(5));
      const u32 b = 64u << rng_.below(2);
      const u32 k = 1 + static_cast<u32>(rng_.below(2));
      const u64 s = 1 + rng_.below(4);
      const std::string body =
          "{\"op\":\"generate\",\"params\":{\"E\":" + std::to_string(E) +
          ",\"b\":" + std::to_string(b) + ",\"k\":" + std::to_string(k) +
          ",\"seed\":" + std::to_string(s) + "}}";
      if (seen.insert(body).second) {
        hot_.push_back(body);
      }
    }
    kind_ = rng_.below(10);
    prove_ = rng_.below(1632);
    certify_ = rng_.below(819);
  }

  [[nodiscard]] const std::vector<std::string>& hot() const { return hot_; }

  std::string hit() { return hot_[rng_.below(hot_.size())]; }
  [[nodiscard]] std::size_t draw_below(std::size_t bound) {
    return static_cast<std::size_t>(rng_.below(bound));
  }

  /// A request no earlier request of the run has made: fresh-seed
  /// generates at E=15, b=512 (core + workload), prove and certify
  /// (analyze), and small multi-engine campaigns (runtime + sort).
  ///
  /// The kinds and the prove and certify parameters are stratified, not
  /// drawn: kinds follow a fixed rotation of ten, and each prove (certify)
  /// takes the next point of a sequence that runs through every one of
  /// its 1632 (819) parameter combinations, mixing the costly ones in
  /// evenly.  Any stretch of misses then costs about the same to serve,
  /// whatever the seed; the seed chooses where each sequence starts and
  /// the seeds of the fresh generates and campaigns.
  std::string miss() {
    for (;;) {
      // Per rotation of ten: generate 4, prove 3, certify 2, campaign 1.
      // A campaign is the slowest miss, and most of its time is spent
      // creating its cache and journal files in the daemon's data
      // directory, so the more of them, the more the daemon's capacity
      // follows the host's file-system latency instead of the program.
      static const char kRotation[] = "gpgqcgpqgp";
      const char kind = kRotation[kind_++ % 10];
      std::string body;
      if (kind == 'g') {
        body = "{\"op\":\"generate\",\"params\":{\"E\":15,\"b\":512,\"k\":1,"
               "\"seed\":" +
               std::to_string(1000 + (rng_() >> 12)) + "}}";
      } else if (kind == 'p') {
        // p mod 8 and p mod 17 vary fastest; the tuple is distinct for
        // every p below 1632 = lcm(8 * 17, 96).
        const u64 p = prove_++;
        body = std::string("{\"op\":\"prove\",\"params\":{\"engine\":\"") +
               kProveEngines[p % 8] + "\",\"b\":" +
               std::to_string(64u << ((p / 16) % 3)) + ",\"pad\":" +
               std::to_string((p / 48) % 2) + ",\"layout\":\"" +
               kLayouts[(p / 8) % 2] + "\",\"E_max\":" +
               std::to_string(8 + (p * 7) % 17) + "}}";
      } else if (kind == 'q') {
        static const char* const kBs[] = {"[64]", "[128]", "[256]",
                                          "[64,128]", "[64,256]",
                                          "[128,256]", "[64,128,256]"};
        static const char* const kPads[] = {"[0]", "[1]", "[0,1]"};
        // Distinct for every c below 819 = 7 * 9 * 13.
        const u64 c = certify_++;
        body = std::string(
                   "{\"op\":\"certify\",\"params\":{\"engine\":\"shearsort\","
                   "\"layout\":\"rotation\",\"bs\":") +
               kBs[c % 7] + ",\"pads\":" + kPads[c % 3] +
               ",\"E_min\":" + std::to_string(3 + (c / 21) % 3) +
               ",\"E_max\":" + std::to_string(8 + c % 13) + "}}";
      } else {
        body = campaign(1000 + (rng_() >> 12));
      }
      if (made_.insert(body).second) {
        return body;
      }
    }
  }

  /// The small multi-engine campaign used as a miss and as a probe.  One
  /// thread: its three tiny cells gain nothing from the default pool of
  /// nproc workers, which would only crowd the daemon's other threads.
  static std::string campaign(u64 seed) {
    return "{\"op\":\"campaign\",\"params\":{\"spec\":{\"name\":\"mix\","
           "\"threads\":1,\"seed\":" +
           std::to_string(seed) +
           ",\"grid\":[{\"engine\":\"pairwise\",\"E\":[5],\"b\":[64],"
           "\"k\":[1],\"input\":[\"random\",\"worst-case\"]},"
           "{\"engine\":\"bitonic\",\"E\":[5],\"b\":[64],\"k\":[1],"
           "\"input\":[\"random\"]}]}}}";
  }

 private:
  wcm::Xoshiro256 rng_;
  std::vector<std::string> hot_;
  std::set<std::string> made_;
  u64 kind_ = 0, prove_ = 0, certify_ = 0;  // positions in each sequence
};

/// Every 1/miss_share-th request is a miss, at a seeded offset: spacing the
/// misses evenly, like the arrivals, keeps them from queueing behind each
/// other below saturation, so a p99 measures their service and not how
/// the seed happened to cluster them.
std::vector<PlannedRequest> plan_phase(MixSource& src, const std::string& tag,
                                       std::size_t count, double miss_share) {
  const auto period = static_cast<std::size_t>(std::llround(1.0 / miss_share));
  const std::size_t offset = src.draw_below(period);
  std::vector<PlannedRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PlannedRequest r;
    r.id = tag + std::to_string(i);
    r.miss = (i + offset) % period == 0;
    r.line = with_id(r.id, r.miss ? src.miss() : src.hit());
    out.push_back(std::move(r));
  }
  return out;
}

std::size_t request_count(double rate, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rate * seconds)));
}

}  // namespace

// ---- daemon ----------------------------------------------------------------

Daemon::Daemon(const std::string& wcmd, const std::string& socket,
               const std::string& data_dir, const std::string& trace_out)
    : socket_(socket) {
  // Default settings: only the socket and data directory are chosen, and
  // no WCM_* variable of the caller leaks in (the traced run adds its
  // own telemetry switches).
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WCM_", 4) != 0) {
      env.emplace_back(*e);
    }
  }
  if (!trace_out.empty()) {
    env.emplace_back("WCM_TELEMETRY=1");
    env.emplace_back("WCM_TRACE_OUT=" + trace_out);
    env.emplace_back("WCM_TRACE_MAX_SPANS=4096");
  }
  std::vector<std::string> args{wcmd,       "--socket", socket,
                                "--data-dir", data_dir, "--quiet"};
  std::vector<char*> argv;
  for (auto& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (auto& e : env) {
    envp.push_back(e.data());
  }
  envp.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    throw wcm::io_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // The daemon dies with the benchmark, and its stdout must never reach
    // the benchmark's result stream.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

void Daemon::wait_healthy(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           static_cast<long>(timeout_s * 1e3));
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw wcm::io_error("wcmd exited during start-up");
    }
    try {
      const std::string r = roundtrip(socket_, "{\"op\":\"health\"}");
      if (r.find("\"ok\":true") != std::string::npos) {
        return;
      }
    } catch (const wcm::io_error&) {
      // not listening yet
    }
    if (Clock::now() > deadline) {
      throw wcm::io_error("wcmd did not answer health in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

int Daemon::stop(double* peak_rss_mb) {
  if (pid_ <= 0) {
    return -1;
  }
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = this->peak_rss_mb();
  }
  try {
    (void)roundtrip(socket_, "{\"op\":\"drain\"}");
  } catch (const wcm::io_error&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  pid_t got = 0;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      got = ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (got < 0 || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

// ---- plan ------------------------------------------------------------------

ServePlan make_plan(const ServeSettings& s, u64 seed, double light_s,
                    double heavy_s, double rung_s, double saturate_s) {
  MixSource src(seed, s.hot_pool);
  ServePlan plan;
  plan.warm = src.hot();
  // One request of every other op, so each handler runs at least once in
  // every workload (the traced run reads their daemon-side spans back).
  plan.warm.push_back(
      "{\"op\":\"prove\",\"params\":{\"engine\":\"pairwise\",\"b\":64}}");
  plan.warm.push_back(
      "{\"op\":\"certify\",\"params\":{\"engine\":\"shearsort\","
      "\"layout\":\"xor\"}}");
  plan.warm.push_back(MixSource::campaign(1 + (seed % 1000)));
  plan.light = plan_phase(src, "l", request_count(s.light_rps, light_s),
                          s.miss_share);
  plan.heavy = plan_phase(src, "h", request_count(s.heavy_rps, heavy_s),
                          s.miss_share);
  for (std::size_t i = 0; i < s.ladder_rps.size(); ++i) {
    plan.ladder.push_back(plan_phase(src, "r" + std::to_string(i) + "-",
                                     request_count(s.ladder_rps[i], rung_s),
                                     s.miss_share));
  }
  const double slice_s = saturate_s / s.saturate_slices;
  for (u32 i = 0; i < s.saturate_slices; ++i) {
    plan.saturate.push_back(plan_phase(
        src, "s" + std::to_string(i) + "-",
        request_count(s.saturate_plan_rps, slice_s), s.miss_share));
  }
  return plan;
}

// ---- load generator --------------------------------------------------------

bool PhaseOutcome::meets(double limit_ms) const {
  if (stopped || failed != 0 || latency_ms.empty()) {
    return false;
  }
  const Summary s = summarize(latency_ms);
  return s.p99 <= limit_ms &&
         static_cast<double>(backlog_end) <= backlog_allowance(limit_ms);
}

double PhaseOutcome::backlog_allowance(double limit_ms) const {
  // What would be in flight if every request took the full limit.
  return rate * limit_ms / 1e3 + 1;
}

PhaseOutcome run_phase(const std::string& socket,
                       const std::vector<PlannedRequest>& requests,
                       double rate, double seconds, const ServeSettings& s,
                       Pacing pacing) {
  constexpr double kGoodputWindowS = 0.5;
  const double limit_ms = s.latency_limit_ms;
  const double drain_timeout_s = s.drain_timeout_s;
  PhaseOutcome out;
  out.rate = rate;
  const std::size_t n = requests.size();
  std::vector<double> due(n), lag(n, 0.0), latency(n, -1.0);
  std::vector<char> sent(n, 0);
  out.response.assign(n, std::string());
  const bool saturate = pacing == Pacing::saturate;
  for (std::size_t i = 0; i < n && !saturate; ++i) {
    due[i] = static_cast<double>(i) / rate;
  }
  // A rung stops sending once its backlog shows it cannot meet the limit,
  // and before the misses waiting in the daemon's admission queue (256 by
  // default) could fill it and be shed: probing never fails requests.
  const double stop_at = out.backlog_allowance(limit_ms);
  constexpr long kMissesMax = 128;
  // Wake at each due time as precisely as the kernel allows.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const int fd = connect_socket(socket);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::unordered_map<std::string, std::size_t> inflight;
  long outstanding_misses = 0;
  std::string outbuf;
  std::size_t out_off = 0;
  std::vector<std::size_t> line_ends;  // end offset of each line in outbuf
  std::string inbuf;
  std::size_t next = 0;
  bool window_closed = false;
  char chunk[65536];
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto since = [&] { return seconds_between(t0, Clock::now()); };
  const auto may_send = [&](double now) {
    if (next >= n || out.stopped) {
      return false;
    }
    if (saturate) {
      // Due as soon as the window has room: timed from the send.
      if (now < 0 || now >= seconds || inflight.size() >= s.saturate_window) {
        return false;
      }
      due[next] = now;
    }
    return due[next] <= now;
  };
  for (;;) {
    double now = since();
    while (may_send(now)) {
      outbuf += requests[next].line;
      outbuf += '\n';
      line_ends.push_back(outbuf.size());
      lag[next] = (now - due[next]) * 1e3;
      sent[next] = 1;
      inflight.emplace(requests[next].id, next);
      outstanding_misses += requests[next].miss ? 1 : 0;
      // A failing ladder rung sends nothing more.
      out.stopped = pacing == Pacing::ladder_rung &&
                    (static_cast<double>(inflight.size()) > stop_at ||
                     outstanding_misses > kMissesMax);
      ++next;
    }
    while (out_off < outbuf.size()) {
      const ssize_t w = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (w <= 0) {
        break;  // EAGAIN: the socket buffer is full; retry after poll
      }
      out_off += static_cast<std::size_t>(w);
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      line_ends.clear();
      out_off = 0;
    }
    for (;;) {
      const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
      if (r <= 0) {
        break;
      }
      const double at = since();
      inbuf.append(chunk, static_cast<std::size_t>(r));
      std::size_t start = 0;
      for (std::size_t nl = inbuf.find('\n'); nl != std::string::npos;
           nl = inbuf.find('\n', start)) {
        std::string line = inbuf.substr(start, nl - start);
        start = nl + 1;
        const auto it = inflight.find(response_id(line));
        if (it == inflight.end()) {
          continue;
        }
        latency[it->second] = (at - due[it->second]) * 1e3;
        out.response[it->second] = std::move(line);
        outstanding_misses -= requests[it->second].miss ? 1 : 0;
        inflight.erase(it);
      }
      inbuf.erase(0, start);
    }
    now = since();
    if (!window_closed && now >= seconds) {
      // Daemon backlog: sent but unanswered.  Generator backlog: due but
      // not yet handed to the socket.
      window_closed = true;
      out.backlog_end = inflight.size();
      for (const std::size_t e : line_ends) {
        out.unsent_end += e > out_off ? 1 : 0;
      }
      for (std::size_t i = next;
           i < n && due[i] <= now && !out.stopped && !saturate; ++i) {
        ++out.unsent_end;
      }
    }
    const bool done_sending =
        next >= n || out.stopped || (saturate && now >= seconds);
    if (done_sending && inflight.empty() && outbuf.empty()) {
      break;
    }
    if (now > seconds + drain_timeout_s) {
      break;  // unanswered requests count as failures
    }
    double wait_s = 0.02;  // a response ends the wait early
    if (!done_sending && (!saturate || now < 0)) {
      wait_s = std::min(wait_s, std::max(0.0, (saturate ? 0 : due[next]) - now));
    }
    pollfd pfd{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)),
               0};
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec =
        static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    ::ppoll(&pfd, 1, &ts, nullptr);
  }
  ::close(fd);

  // Only requests actually sent count: a stopped rung's remainder never
  // left the generator.
  const double penalty_ms = drain_timeout_s * 1e3;
  u64 good = 0;
  double last_answer_s = 0;  // when the phase's last response arrived
  for (std::size_t i = 0; i < n; ++i) {
    if (!sent[i]) {
      continue;
    }
    ++out.sent;
    const bool ok = !out.response[i].empty() &&
                    response_ok(out.response[i], requests[i].id);
    if (!ok) {
      ++out.failed;
      out.latency_ms.push_back(penalty_ms);
      continue;
    }
    last_answer_s = std::max(last_answer_s, due[i] + latency[i] / 1e3);
    out.latency_ms.push_back(latency[i]);
    out.lag_ms.push_back(lag[i]);
    good += latency[i] <= limit_ms ? 1 : 0;
  }
  out.goodput_rps =
      static_cast<double>(good) / std::max(last_answer_s, 1.0 / rate);
  // The same per window of the send period, by answer time, up to the
  // last answer (a phase whose requests run out early ends there).
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::min(seconds, last_answer_s) / kGoodputWindowS));
  out.window_goodput_rps.assign(windows, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!sent[i] || out.response[i].empty() || latency[i] > limit_ms ||
        !response_ok(out.response[i], requests[i].id)) {
      continue;
    }
    const auto w = static_cast<std::size_t>(
        (due[i] + latency[i] / 1e3) / kGoodputWindowS);
    if (w < windows) {
      out.window_goodput_rps[w] += 1.0 / kGoodputWindowS;
    }
  }
  return out;
}

// ---- in-process reference ------------------------------------------------

InProcess execute_in_process(const std::vector<std::string>& lines,
                             u32 threads, Spans& spans) {
  threads = std::max<u32>(threads, 1);
  InProcess ip;
  std::map<std::string, wcm::serve::Request> distinct;
  for (const auto& line : lines) {
    const auto t0 = Clock::now();
    wcm::serve::Request req = wcm::serve::parse_request(line);
    std::string canonical = wcm::serve::canonical_request(req);
    ip.parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    distinct.emplace(std::move(canonical), std::move(req));
  }
  std::vector<const std::pair<const std::string, wcm::serve::Request>*> work;
  for (const auto& kv : distinct) {
    work.push_back(&kv);
  }
  std::vector<std::string> results(work.size());
  std::vector<double> ms(work.size());
  std::atomic<std::size_t> next{0};
  Spans no_spans(false);  // spans are single-threaded
  const auto worker = [&] {
    const wcm::serve::ServerConfig cfg;
    for (std::size_t i = next++; i < work.size(); i = next++) {
      const std::string& op = work[i]->second.op;
      const char* layer = op == "campaign"                      ? "runtime"
                          : op == "prove" || op == "certify" ? "analyze"
                                                             : "serve";
      const Spans::Scope span(threads == 1 ? spans : no_spans,
                              "serve::execute " + op, layer);
      const auto t0 = Clock::now();
      try {
        results[i] = wcm::serve::execute(work[i]->second, cfg, nullptr);
      } catch (const std::exception& e) {
        results[i] = std::string("in-process execute failed: ") + e.what();
      }
      ms[i] = seconds_between(t0, Clock::now()) * 1e3;
    }
  };
  std::vector<std::thread> pool;
  for (u32 t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (auto& t : pool) {
    t.join();
  }
  for (std::size_t i = 0; i < work.size(); ++i) {
    ip.result[work[i]->first] = results[i];
    ip.execute_ms[work[i]->second.op].push_back(ms[i]);
  }
  return ip;
}

u64 verify_responses(const std::vector<PlannedRequest>& requests,
                     const std::vector<std::string>& responses,
                     const InProcess& expected, Report& report) {
  u64 wrong = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& got = responses[i];
    if (got.empty() || !response_ok(got, requests[i].id)) {
      continue;  // counted as a failure by the phase
    }
    const wcm::serve::Request req =
        wcm::serve::parse_request(requests[i].line);
    const auto it = expected.result.find(wcm::serve::canonical_request(req));
    if (it == expected.result.end() ||
        got != wcm::serve::ok_response(requests[i].id, it->second)) {
      ++wrong;
      report.fail_check("response " + requests[i].id + " (" + req.op +
                        ") differs from the in-process serve::execute result");
    }
  }
  return wrong;
}

std::string roundtrip(const std::string& socket, const std::string& line) {
  return roundtrip_all(socket, {line}).front();
}

std::vector<std::string> roundtrip_all(const std::string& socket,
                                       const std::vector<std::string>& lines) {
  const int fd = connect_socket(socket);
  std::string data;
  for (const auto& line : lines) {
    data += line;
    data += '\n';
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      ::close(fd);
      throw wcm::io_error("send failed");
    }
    off += static_cast<std::size_t>(w);
  }
  std::vector<std::string> out;
  std::string in;
  char chunk[65536];
  while (out.size() < lines.size()) {
    const auto nl = in.find('\n');
    if (nl != std::string::npos) {
      out.push_back(in.substr(0, nl));
      in.erase(0, nl + 1);
      continue;
    }
    const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
    if (r <= 0) {
      ::close(fd);
      throw wcm::io_error("connection closed before a response");
    }
    in.append(chunk, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

std::map<std::string, double> counters_of(const std::string& metrics_result) {
  std::map<std::string, double> sums;
  const json::Value doc = json::parse(metrics_result);
  for (const auto& row : doc.as_object().at("metrics").as_array()) {
    const auto& o = row.as_object();
    const auto kind = o.find("kind");
    const auto value = o.find("value");
    if (kind != o.end() && value != o.end() &&
        kind->second.as_string() != "histogram") {
      sums[o.at("name").as_string()] += value->second.as_double();
    }
  }
  return sums;
}

}  // namespace perfbench
