#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cache.hpp"
#include "runtime/singleflight.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/tenant_cache.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sliding.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_context.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace wcm::serve {

namespace detail {

void accept_failpoint() {
  WCM_FAILPOINT("serve.accept", io_error, "injected accept failure");
}

void read_failpoint() {
  WCM_FAILPOINT("serve.read", io_error, "injected read failure");
}

void write_failpoint() {
  WCM_FAILPOINT("serve.write", io_error, "injected write failure");
}

void dispatch_failpoint() {
  WCM_FAILPOINT("serve.dispatch", simulation_error,
                "injected dispatch failure");
}

void trace_inject_failpoint() {
  WCM_FAILPOINT("serve.trace.inject", simulation_error,
                "injected trace-context failure");
}

}  // namespace detail

namespace {

void count(const char* name) {
  if (telemetry::enabled()) {
    telemetry::registry().counter(name).add();
  }
}

/// Inverse of to_string(ErrorType), for replaying a FlightResult's stored
/// error class onto the wire.  Unknown strings degrade to `internal`.
ErrorType error_type_from(const std::string& name) noexcept {
  for (const ErrorType t :
       {ErrorType::parse, ErrorType::unknown_op, ErrorType::config,
        ErrorType::io, ErrorType::too_large, ErrorType::overloaded,
        ErrorType::deadline, ErrorType::interrupted, ErrorType::internal}) {
    if (name == to_string(t)) {
      return t;
    }
  }
  return ErrorType::internal;
}

/// Decoded socket address: `@name` = Linux abstract namespace (sun_path
/// starts with NUL, nothing on disk), anything else a filesystem path.
struct SocketAddr {
  sockaddr_un addr{};
  socklen_t len = 0;
  bool abstract = false;
};

SocketAddr socket_addr(const std::string& name) {
  SocketAddr sa;
  sa.addr.sun_family = AF_UNIX;
  sa.abstract = !name.empty() && name.front() == '@';
  const std::string path = sa.abstract ? name.substr(1) : name;
  WCM_CHECK_IO(!path.empty(), "socket name '" + name + "' is empty");
  WCM_CHECK_IO(path.size() + 1 < sizeof(sa.addr.sun_path),
               "socket name '" + name + "' exceeds the sockaddr_un limit");
  if (sa.abstract) {
    sa.addr.sun_path[0] = '\0';
    std::memcpy(sa.addr.sun_path + 1, path.data(), path.size());
    sa.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                    path.size());
  } else {
    std::memcpy(sa.addr.sun_path, path.data(), path.size() + 1);
    sa.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                    path.size() + 1);
  }
  return sa;
}

std::string errno_text() { return std::strerror(errno); }  // NOLINT

/// Positive-double env knob; anything unset, non-numeric, trailing-junk,
/// or non-positive falls back.
double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || !(parsed > 0.0)) {
    return fallback;
  }
  return parsed;
}

}  // namespace

struct Server::Impl {
  // One accepted client.  The reader thread owns fd lifetime; writers
  // (dispatcher-driven flight callbacks) serialize on write_mu.  `pending`
  // counts this connection's requests still in flight — the reader may not
  // close the socket until every one has been answered (the zero-drop
  // drain invariant).
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::mutex write_mu;
    std::atomic<std::size_t> pending{0};
  };

  // One admitted flight leader waiting for the dispatcher.
  struct QueueItem {
    Request req;
    u64 key = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    /// The leader's request trace context (serve.request span as parent),
    /// installed on the worker that runs the batch job.
    telemetry::TraceContext trace;
  };

  explicit Impl(ServerConfig cfg)
      : cfg_(std::move(cfg)),
        slo_ms_(env_double("WCM_SLO_MS", 250.0)),
        slo_window_s_(env_double("WCM_SLO_WINDOW_S", 60.0)) {
    worker_threads_ = cfg_.threads != 0 ? cfg_.threads
                                        : runtime::threads_from_env(1);
    if (worker_threads_ == 0) {
      worker_threads_ = 1;
    }
  }

  // ---- lifecycle -------------------------------------------------------

  const ServerStats& serve() {
    open_data_dir();
    bind_socket();
    if (log_ != nullptr) {
      *log_ << "wcmd: serving on " << cfg_.socket << " (threads="
            << worker_threads_ << ", queue_max=" << cfg_.queue_max
            << ", cache=" << (cfg_.data_dir.empty() ? "memory" : cfg_.data_dir)
            << ")\n";
    }
    dispatcher_ = std::thread([this] { dispatch_loop(); });
    accept_loop();
    drain();
    return stats_;
  }

  void request_drain() noexcept { drain_.cancel(); }

  // ---- socket ----------------------------------------------------------

  void open_data_dir() {
    if (cfg_.data_dir.empty()) {
      return;
    }
    std::filesystem::create_directories(cfg_.data_dir);
    cache_ = TenantCache::load(wcms_path(), runtime::code_version_salt());
    if (log_ != nullptr && cache_.total_size() > 0) {
      *log_ << "wcmd: warmed " << cache_.total_size()
            << " cached responses from " << wcms_path().string() << "\n";
    }
  }

  [[nodiscard]] std::filesystem::path wcms_path() const {
    return std::filesystem::path(cfg_.data_dir) / "responses.wcms";
  }

  void bind_socket() {
    const SocketAddr sa = socket_addr(cfg_.socket);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    WCM_CHECK_IO(listen_fd_ >= 0, "socket(): " + errno_text());
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
    const auto* addr = reinterpret_cast<const sockaddr*>(&sa.addr);
    if (::bind(listen_fd_, addr, sa.len) != 0) {
      if (errno == EADDRINUSE && !sa.abstract) {
        // A leftover socket file from a crashed daemon binds as "in use".
        // Distinguish it from a live daemon by probing: a refused connect
        // means nobody is listening and the stale file may be reclaimed.
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        WCM_CHECK_IO(probe >= 0, "socket(): " + errno_text());
        const bool live = ::connect(probe, addr, sa.len) == 0;
        ::close(probe);
        if (live) {
          ::close(listen_fd_);
          listen_fd_ = -1;
          throw io_error("socket '" + cfg_.socket +
                         "' is already served by a live daemon");
        }
        std::filesystem::remove(cfg_.socket);
        WCM_CHECK_IO(::bind(listen_fd_, addr, sa.len) == 0,
                     "bind('" + cfg_.socket + "'): " + errno_text());
      } else {
        const std::string why = errno_text();
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw io_error("bind('" + cfg_.socket + "'): " + why);
      }
    }
    WCM_CHECK_IO(::listen(listen_fd_, 64) == 0,
                 "listen('" + cfg_.socket + "'): " + errno_text());
  }

  // ---- accept loop (serve() caller thread) -----------------------------

  void accept_loop() {
    while (!drain_.cancelled()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) {
        continue;  // timeout or EINTR: re-check the drain flag
      }
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        continue;
      }
      try {
        detail::accept_failpoint();
      } catch (const error&) {
        count("serve.accept.drop");
        ::close(fd);
        continue;
      }
      if (live_conns_.load(std::memory_order_relaxed) >=
          cfg_.max_connections) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        count("serve.shed");
        // Best-effort courtesy line; a shed connection never counted a
        // request, so this write stays out of the responses tally.
        const std::string line =
            error_response("", ErrorType::overloaded,
                           "connection limit reached (max_connections=" +
                               std::to_string(cfg_.max_connections) +
                               "); retry later") +
            "\n";
        (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      accepted_.fetch_add(1, std::memory_order_relaxed);
      count("serve.accepted");
      live_conns_.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
      conn->thread = std::thread([this, conn] { conn_loop(conn); });
    }
  }

  // ---- per-connection reader -------------------------------------------

  void conn_loop(const std::shared_ptr<Conn>& conn) {
    std::string line;
    bool discarding = false;  // oversized line: drop bytes until newline
    char chunk[4096];
    while (!drain_.cancelled()) {
      pollfd pfd{conn->fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) {
        continue;
      }
      try {
        detail::read_failpoint();
      } catch (const error&) {
        count("serve.read.fail");
        break;
      }
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n == 0) {
        break;  // client closed
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        count("serve.read.fail");
        break;
      }
      for (ssize_t i = 0; i < n; ++i) {
        const char c = chunk[i];
        if (c == '\n') {
          if (!discarding) {
            process_line(conn, line);
          }
          discarding = false;
          line.clear();
          continue;
        }
        if (discarding) {
          continue;
        }
        line.push_back(c);
        if (line.size() >= max_request_bytes) {
          // The oversized line counts as one request and gets its one
          // (typed) response now; the rest of it is dropped unread.
          requests_.fetch_add(1, std::memory_order_relaxed);
          count("serve.requests");
          count("serve.too_large");
          write_line(*conn, error_response(
                                "", ErrorType::too_large,
                                "request line exceeds " +
                                    std::to_string(max_request_bytes) +
                                    " bytes"));
          discarding = true;
          line.clear();
        }
      }
    }
    // A partial trailing line was never a request; drop it.  Every line
    // that *was* read must be answered before the socket may close.
    while (conn->pending.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(conn->fd);
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
  }

  // ---- request admission (connection thread) ---------------------------

  void process_line(const std::shared_ptr<Conn>& conn,
                    const std::string& line) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    count("serve.requests");
    Request req;
    try {
      req = parse_request(line);
    } catch (const std::exception& e) {
      write_line(*conn, error_response("", ErrorType::parse, e.what()));
      return;
    }
    // Everything from here runs under the request's trace context: the
    // serve.request span, the admission decisions, and (for batched ops)
    // the context captured into the queue item and the deliver callback.
    const telemetry::ScopedTraceContext trace_scope(request_trace(req));
    WCM_SPAN("serve.request");
    if (telemetry::eventlog::log_enabled()) {
      json::Object fields;
      fields.emplace("id", json::Value(req.id));
      fields.emplace("op", json::Value(req.op));
      telemetry::eventlog::emit("serve.request", std::move(fields));
    }
    if (req.op == "health") {
      write_line(*conn, ok_response(req.id, health_json()));
      return;
    }
    if (req.op == "drain") {
      // Acknowledge first: after request_drain() the reader stops and the
      // acknowledgement could never be written.
      write_line(*conn, ok_response(req.id, "{\"draining\":true}"));
      request_drain();
      return;
    }
    if (req.op == "metrics" || req.op == "trace") {
      try {
        write_line(*conn, ok_response(req.id, execute(req, cfg_, &drain_)));
      } catch (const std::exception& e) {
        write_line(*conn, error_response(req.id, error_type_of(e), e.what()));
      }
      return;
    }
    if (!is_batched_op(req.op)) {
      write_line(*conn, error_response(req.id, ErrorType::unknown_op,
                                       "unknown op '" + req.op + "'"));
      return;
    }
    std::string canonical;
    try {
      canonical = canonical_request(req);
    } catch (const std::exception& e) {
      write_line(*conn, error_response(req.id, error_type_of(e), e.what()));
      return;
    }
    const u64 key = cache_.key_of(canonical);
    if (const auto hit = cache_.lookup(req.tenant, key)) {
      write_line(*conn, ok_response(req.id, *hit));
      emit_respond(req.id, true);
      return;
    }
    conn->pending.fetch_add(1, std::memory_order_acq_rel);
    // current_trace_context() here carries the serve.request span as the
    // parent, so serve.respond (and the scheduler job, via the queue item)
    // nest under it in the exported causal tree.
    auto deliver = [this, conn, id = req.id, tenant = req.tenant, key,
                    trace = telemetry::current_trace_context()](
                       const runtime::FlightResult& r) {
      const telemetry::ScopedTraceContext respond_scope(trace);
      WCM_SPAN("serve.respond");
      if (r.ok) {
        // Idempotent across the flight's waiters; populates the shard of
        // every tenant that joined, each within its own quota.
        cache_.insert(tenant, key, r.value);
        write_line(*conn, ok_response(id, r.value));
      } else {
        write_line(*conn, error_response(id, error_type_from(r.error_type),
                                         r.error_message));
      }
      emit_respond(id, r.ok);
      conn->pending.fetch_sub(1, std::memory_order_acq_rel);
    };
    if (!flights_.lead_or_join(key, std::move(deliver))) {
      count("serve.dedup.hits");
      return;  // joined an in-flight leader; its completion answers us
    }
    enqueue(std::move(req), key);
  }

  /// Mint the request's trace context: the wire trace_id when the client
  /// sent one, a fresh daemon-minted id otherwise.  Tracing is pure
  /// observation — when neither the tracer nor the event log is on, no
  /// context is minted, and an injected "serve.trace.inject" failure
  /// degrades to no-context (counted on `serve.trace.drop`) instead of
  /// touching the response path.
  [[nodiscard]] telemetry::TraceContext request_trace(const Request& req) {
    if (!telemetry::tracing() && !telemetry::eventlog::log_enabled()) {
      return {};
    }
    try {
      detail::trace_inject_failpoint();
    } catch (const error&) {
      count("serve.trace.drop");
      return {};
    }
    telemetry::TraceContext ctx;
    ctx.trace_id =
        req.trace_id != 0 ? req.trace_id : telemetry::next_trace_id();
    ctx.span_id = req.parent_span_id;
    ctx.tenant = req.tenant;
    return ctx;
  }

  /// Event-log record of one response write (runs under the caller's
  /// trace scope, so the line carries the request's correlation ids).
  void emit_respond(const std::string& id, bool ok) {
    if (!telemetry::eventlog::log_enabled()) {
      return;
    }
    json::Object fields;
    fields.emplace("id", json::Value(id));
    fields.emplace("ok", json::Value(ok));
    telemetry::eventlog::emit("serve.respond", std::move(fields));
  }

  void enqueue(Request req, u64 key) {
    QueueItem item;
    item.key = key;
    item.trace = telemetry::current_trace_context();
    item.enqueued = std::chrono::steady_clock::now();
    if (req.deadline_ms != 0) {
      item.has_deadline = true;
      item.deadline =
          item.enqueued + std::chrono::milliseconds(req.deadline_ms);
    }
    item.req = std::move(req);
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (queue_.size() >= cfg_.queue_max) {
        lock.unlock();
        shed_.fetch_add(1, std::memory_order_relaxed);
        count("serve.shed");
        runtime::FlightResult r;
        r.error_type = to_string(ErrorType::overloaded);
        r.error_message = "admission queue full (queue_max=" +
                          std::to_string(cfg_.queue_max) + "); retry later";
        flights_.complete(key, r);  // the leader must still answer
        return;
      }
      queue_.push_back(std::move(item));
      if (telemetry::enabled()) {
        telemetry::registry().gauge("serve.queue.depth").set(
            static_cast<double>(queue_.size()));
      }
    }
    queue_cv_.notify_one();
  }

  // ---- dispatcher ------------------------------------------------------

  void dispatch_loop() {
    for (;;) {
      std::vector<QueueItem> batch;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock,
                       [this] { return stop_dispatch_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stop requested and nothing left
        }
        while (!queue_.empty() && batch.size() < cfg_.batch_max) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        if (telemetry::enabled()) {
          telemetry::registry().gauge("serve.queue.depth").set(
              static_cast<double>(queue_.size()));
        }
      }
      run_batch(batch);
    }
  }

  void run_batch(std::vector<QueueItem>& batch) {
    WCM_SPAN("serve.batch");
    count("serve.batches");
    struct Slot {
      runtime::FlightResult result;
    };
    std::vector<Slot> slots(batch.size());
    std::vector<std::size_t> job_slot;  // slot index of each added job
    runtime::JobGraph graph;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueueItem& item = batch[i];
      // deadline_ms bounds *queueing* only: a request that waited too long
      // is answered `deadline` instead of executed; one that reached the
      // front in time runs to completion (docs/SERVE.md).
      if (item.has_deadline && now > item.deadline) {
        count("serve.deadline.expired");
        slots[i].result.error_type = to_string(ErrorType::deadline);
        slots[i].result.error_message =
            "deadline_ms=" + std::to_string(item.req.deadline_ms) +
            " expired while the request was queued";
        continue;
      }
      // A flight whose result landed in the cache after its leader was
      // admitted (e.g. a just-completed identical flight) resolves here
      // without a job, keeping serve.jobs = actual computations.
      if (const auto hit = cache_.lookup(item.req.tenant, item.key)) {
        slots[i].result.ok = true;
        slots[i].result.value = *hit;
        continue;
      }
      count("serve.jobs");
      job_slot.push_back(i);
      runtime::JobOptions opts;
      opts.label = item.req.op;
      opts.trace = item.trace;
      graph.add(
          [this, &item, &slot = slots[i]](runtime::JobContext&) {
            detail::dispatch_failpoint();
            slot.result.value = execute(item.req, cfg_, &drain_);
            slot.result.ok = true;
          },
          std::move(opts));
    }
    if (!job_slot.empty()) {
      runtime::RunOptions ropts;
      ropts.threads = worker_threads_;
      const runtime::RunReport report = runtime::run(graph, ropts);
      for (std::size_t j = 0; j < job_slot.size(); ++j) {
        Slot& slot = slots[job_slot[j]];
        const runtime::JobOutcome& out = report.outcomes[j];
        if (out.state == runtime::JobState::done) {
          continue;  // the job body filled the slot
        }
        ErrorType type = ErrorType::internal;
        std::string message = out.message;
        if (out.error) {
          try {
            std::rethrow_exception(out.error);
          } catch (const std::exception& e) {
            type = error_type_of(e);
            message = e.what();
          } catch (...) {  // non-std exceptions stay `internal`
          }
        }
        slot.result.ok = false;
        slot.result.error_type = to_string(type);
        slot.result.error_message = message;
      }
    }
    const auto done = std::chrono::steady_clock::now();
    const u64 done_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            done.time_since_epoch())
            .count());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (telemetry::enabled()) {
        const std::chrono::duration<double, std::milli> waited =
            done - batch[i].enqueued;
        telemetry::registry()
            .histogram("serve.latency_ms", {}, latency_bounds_)
            .observe(waited.count());
        observe_tenant_latency(batch[i].req.tenant, done_ns, waited.count());
      }
      flights_.complete(batch[i].key, slots[i].result);
    }
  }

  /// Feed one completed request into its tenant's sliding window and
  /// refresh that tenant's window-p50/p99 and SLO burn-rate gauges
  /// (docs/TELEMETRY.md "Serving metrics").
  void observe_tenant_latency(const std::string& tenant, u64 now_ns,
                              double waited_ms) {
    telemetry::SlidingStats::Summary sum;
    {
      std::lock_guard<std::mutex> lock(slo_mu_);
      auto it = tenant_stats_.find(tenant);
      if (it == tenant_stats_.end()) {
        it = tenant_stats_
                 .emplace(tenant,
                          telemetry::SlidingStats(slo_window_s_, slo_ms_))
                 .first;
      }
      it->second.observe(now_ns, waited_ms);
      sum = it->second.summarize(now_ns);
    }
    telemetry::Registry& reg = telemetry::registry();
    reg.gauge("serve.latency.window_p50_ms", {{"tenant", tenant}})
        .set(sum.p50_ms);
    reg.gauge("serve.latency.window_p99_ms", {{"tenant", tenant}})
        .set(sum.p99_ms);
    reg.gauge("serve.slo.burn_rate", {{"tenant", tenant}})
        .set(sum.burn_rate);
  }

  // ---- responses -------------------------------------------------------

  /// Write one response line.  Every call counts one attempted response —
  /// an injected or real send failure (client went away) is logged to
  /// telemetry, not held against the drain invariant.
  void write_line(Conn& conn, std::string line) {
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(conn.write_mu);
    responses_.fetch_add(1, std::memory_order_relaxed);
    count("serve.responses");
    try {
      detail::write_failpoint();
    } catch (const error&) {
      count("serve.write.fail");
      return;
    }
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::send(conn.fd, data, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        count("serve.write.fail");
        return;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// The one deliberately volatile result (queue depth, in-flight count):
  /// liveness probes want the live numbers, so `health` is excluded from
  /// the byte-compare determinism contract (docs/SERVE.md).
  [[nodiscard]] std::string health_json() {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = queue_.size();
    }
    json::Object result;
    result.emplace("draining", json::Value(drain_.cancelled()));
    result.emplace("inflight",
                   json::Value(static_cast<double>(flights_.inflight())));
    result.emplace("ok", json::Value(true));
    result.emplace("protocol",
                   json::Value(static_cast<double>(protocol_version)));
    result.emplace("queue", json::Value(static_cast<double>(depth)));
    result.emplace("version", json::Value(std::string(version_string())));
    return json::to_text(json::Value(std::move(result)));
  }

  // ---- drain -----------------------------------------------------------

  void drain() {
    WCM_SPAN("serve.drain");
    ::close(listen_fd_);
    listen_fd_ = -1;
    const SocketAddr sa = socket_addr(cfg_.socket);
    if (!sa.abstract) {
      std::error_code ec;  // best-effort cleanup
      std::filesystem::remove(cfg_.socket, ec);
    }
    {
      // Readers exit once their pending responses land; joining them
      // proves every request line read has been answered.
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) {
        if (conn->thread.joinable()) {
          conn->thread.join();
        }
      }
    }
    for (;;) {  // belt-and-braces: the joins above imply this
      bool queue_empty = false;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_empty = queue_.empty();
      }
      if (queue_empty && flights_.inflight() == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_dispatch_ = true;
    }
    queue_cv_.notify_all();
    dispatcher_.join();
    if (!cfg_.data_dir.empty()) {
      cache_.store(wcms_path());
    }
    stats_.accepted = accepted_.load();
    stats_.requests = requests_.load();
    stats_.responses = responses_.load();
    stats_.shed = shed_.load();
  }

  // ---- state -----------------------------------------------------------

  ServerConfig cfg_;
  /// serve.latency_ms bucket layout: 3 bounds per decade from 0.01 ms to
  /// 10 s, so a 0.05 ms cache hit and a multi-second campaign both land in
  /// meaningful buckets (satellite: log-scale latency histograms).
  const std::vector<double> latency_bounds_ =
      telemetry::log_scale_bounds(0.01, 10000.0, 3);
  double slo_ms_;       ///< WCM_SLO_MS (default 250)
  double slo_window_s_; ///< WCM_SLO_WINDOW_S (default 60)
  std::mutex slo_mu_;
  std::map<std::string, telemetry::SlidingStats> tenant_stats_;
  u32 worker_threads_ = 1;
  std::ostream* log_ = &std::cerr;
  int listen_fd_ = -1;

  runtime::CancelSource drain_;
  TenantCache cache_;
  runtime::SingleFlight flights_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueueItem> queue_;
  bool stop_dispatch_ = false;
  std::thread dispatcher_;

  std::mutex conns_mu_;
  std::list<std::shared_ptr<Conn>> conns_;
  std::atomic<std::size_t> live_conns_{0};

  std::atomic<u64> accepted_{0};
  std::atomic<u64> requests_{0};
  std::atomic<u64> responses_{0};
  std::atomic<u64> shed_{0};
  ServerStats stats_;
};

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() = default;

const ServerStats& Server::serve() { return impl_->serve(); }

void Server::request_drain() noexcept { impl_->request_drain(); }

runtime::CancelSource& Server::drain_source() noexcept {
  return impl_->drain_;
}

const ServerStats& Server::stats() const noexcept { return impl_->stats_; }

void Server::set_log(std::ostream* log) noexcept { impl_->log_ = log; }

namespace {

std::atomic<Server*> g_server{nullptr};

extern "C" void serve_on_signal(int) {
  Server* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) {
    server->request_drain();  // one atomic store; async-signal-safe
  }
}

}  // namespace

std::vector<cli::Flag> serve_flags() {
  return {{"socket"},    {"data-dir"},        {"threads"},
          {"queue-max"}, {"batch-max"},       {"max-connections"},
          {"eventlog"},  {"quiet", false}};
}

int run_server(const cli::Args& args) {
  ServerConfig cfg;
  cfg.socket = args.get("socket", cfg.socket);
  cfg.data_dir = args.get("data-dir", cfg.data_dir);
  cfg.threads = args.get_u32("threads", cfg.threads);
  cfg.queue_max = args.get_u64("queue-max", cfg.queue_max, 1 << 20);
  cfg.batch_max = args.get_u64("batch-max", cfg.batch_max, 1 << 20);
  cfg.max_connections =
      args.get_u64("max-connections", cfg.max_connections, 1 << 20);
  if (cfg.queue_max == 0 || cfg.batch_max == 0 || cfg.max_connections == 0) {
    throw parse_error(
        "--queue-max, --batch-max, and --max-connections must be >= 1");
  }
  if (args.has("eventlog")) {
    telemetry::eventlog::set_path(args.get("eventlog", ""));
  }
  const bool quiet = args.has("quiet");
  Server server(cfg);
  if (quiet) {
    server.set_log(nullptr);
  }
  g_server.store(&server, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = serve_on_signal;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int {};
  struct sigaction old_term {};
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);
  const ServerStats* stats = nullptr;
  try {
    stats = &server.serve();
  } catch (...) {
    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
    g_server.store(nullptr, std::memory_order_relaxed);
    throw;
  }
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  g_server.store(nullptr, std::memory_order_relaxed);
  if (!quiet) {
    std::cerr << "wcmd: drained requests=" << stats->requests
              << " responses=" << stats->responses
              << " shed=" << stats->shed << "\n";
  }
  // The zero-drop invariant: every request line read was answered (write
  // *attempts* count — a vanished client is not a dropped response).
  return stats->requests == stats->responses ? 0 : 5;
}

namespace {

constexpr const char* kDaemonUsage =
    R"(wcmd — long-running adversarial-input daemon (docs/SERVE.md)

usage: wcmd [--socket path|@name] [--data-dir dir] [--threads n]
            [--queue-max n] [--batch-max n] [--max-connections n]
            [--eventlog file.jsonl] [--quiet]

  --socket           Unix-domain socket to serve on; a leading '@' selects
                     the Linux abstract namespace (default @wcmd)
  --data-dir         durable state: WCMS response cache + campaign
                     journals (default: in-memory only)
  --threads          scheduler workers (default WCM_THREADS, else 1)
  --queue-max        admission queue bound before load-shedding (256)
  --batch-max        max requests per scheduler batch (16)
  --max-connections  concurrent client bound before load-shedding (64)
  --eventlog         append structured JSONL request events with
                     correlation ids (also WCM_EVENTLOG;
                     docs/TELEMETRY.md "Request tracing")
  --quiet            suppress startup/drain log lines

The same daemon runs as `wcmgen serve`.  SIGINT/SIGTERM drain
gracefully.  Exit codes: 0 clean drain, 2 usage, 3 socket error,
5 drain invariant violated.
)";

}  // namespace

const char* daemon_usage() noexcept { return kDaemonUsage; }

int daemon_main(int argc, char** argv) {
  return guarded_main("wcmd", [&] {
    std::vector<std::string> tokens = cli::tokens(argc, argv, 1);
    for (std::string& t : tokens) {
      t = t == "-h" ? "--help" : t == "-V" ? "--version" : t;
    }
    std::vector<cli::Flag> flags = serve_flags();
    flags.push_back({"version", false});
    const cli::Args args(tokens, flags, "wcmd");
    if (args.has("help")) {
      std::cout << kDaemonUsage;
      return 0;
    }
    if (args.has("version")) {
      std::cout << "wcmd " << version_string() << " (" << build_describe()
                << ")\n";
      return 0;
    }
    return run_server(args);
  });
}

int guarded_main(const std::string& program,
                 const std::function<int()>& body) {
  // WCM_TRACE_OUT / WCM_TELEMETRY / WCM_EVENTLOG work for every command
  // (docs/TELEMETRY.md).
  telemetry::configure_from_env();
  telemetry::eventlog::configure_from_env();
  int code = 0;
  try {
    // A malformed WCM_FAILPOINTS is a usage error up front, not a lazy
    // parse failing mid-run inside a worker.
    failpoint::configure_from_env();
    code = body();
  } catch (const std::exception& e) {
    // The exit-code table of docs/API.md, over the daemon's error classes.
    switch (error_type_of(e)) {
      case ErrorType::parse:
        std::cerr << "usage error: " << e.what() << "\n(run '" << program
                  << " --help' for the full synopsis)\n";
        code = 2;
        break;
      case ErrorType::io:
        std::cerr << "input error: " << e.what() << "\n";
        code = 3;
        break;
      case ErrorType::config:
        std::cerr << "config error: " << e.what() << "\n";
        code = 4;
        break;
      default:
        if (const auto* err = dynamic_cast<const wcm::error*>(&e)) {
          std::cerr << "internal error [" << to_string(err->code())
                    << "]: " << e.what() << "\n";
        } else {
          std::cerr << "internal error: " << e.what() << "\n";
        }
        code = 5;
    }
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    code = 5;
  }
  // A failed trace export only warns: observability must not fail the run
  // it observed.
  telemetry::flush_trace(&std::cerr);
  return code;
}

}  // namespace wcm::serve
