#pragma once
// wcmd: the long-running adversarial-input daemon (docs/SERVE.md).
//
// One Server owns the whole request path:
//
//   accept thread ── per-connection reader threads ── admission queue ──
//   dispatcher thread (batches leaders into scheduler job lists) ──
//   single-flight completion fan-out ── per-connection writers
//
// Requests are parsed and answered from the multi-tenant response cache on
// the connection thread; misses join a single-flight keyed by the
// canonical request (identical concurrent requests share one computation),
// and only flight leaders occupy admission-queue slots.  A full queue or
// connection limit sheds load with a typed `overloaded` response instead
// of queueing unboundedly, and `deadline_ms` bounds how long a request may
// wait in the queue before it is answered `deadline` instead of executed.
//
// Graceful drain (SIGINT/SIGTERM or the `drain` op): stop accepting,
// stop reading, finish every request already read, flush the WCMS cache,
// then verify the zero-drop invariant — every request line read got
// exactly one response write attempt.  In-flight campaigns are cancelled
// through the drain CancelSource and journal their completed prefix, so
// resubmitting the identical request resumes rather than recomputes.

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "serve/handlers.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"

namespace wcm::serve {

/// Drain-time accounting; serve() fills it and run_server() prints it.
struct ServerStats {
  u64 accepted = 0;   ///< connections accepted
  u64 requests = 0;   ///< request lines read (the zero-drop denominator)
  u64 responses = 0;  ///< response writes attempted (the numerator)
  u64 shed = 0;       ///< requests/connections refused with `overloaded`
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and serve until a drain completes; flushes durable
  /// state and returns the final stats.  Throws wcm::io_error when the
  /// socket cannot be bound (or is already served by a live daemon).
  const ServerStats& serve();

  /// Request a graceful drain.  Async-signal-safe (one atomic store).
  void request_drain() noexcept;

  /// The drain flag, for wiring into signal handlers and campaigns.
  [[nodiscard]] runtime::CancelSource& drain_source() noexcept;

  [[nodiscard]] const ServerStats& stats() const noexcept;

  /// Startup/drain log lines (default std::cerr; null silences).
  void set_log(std::ostream* log) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The daemon's flags, shared by wcmd and `wcmgen serve`.
[[nodiscard]] std::vector<cli::Flag> serve_flags();

/// The serve entry of wcmd and `wcmgen serve`: build the ServerConfig from
/// `args` (parsed against serve_flags()), install SIGINT/SIGTERM drain
/// handlers (restored on return), serve, print the drain summary, and map
/// the zero-drop invariant onto the exit code (0 when every read request
/// got a response attempt, 5 otherwise).  Throws wcm::parse_error on a
/// zero bound and wcm::io_error when the socket cannot be bound.
int run_server(const cli::Args& args);

/// main() of wcmd: the serve flags, or --help / --version.
int daemon_main(int argc, char** argv);

/// The daemon's help text: what `wcmd --help` and `wcmgen serve --help`
/// print.
[[nodiscard]] const char* daemon_usage() noexcept;

/// The main() body the front ends share: configure telemetry, the event
/// log and failpoints from the environment, run `body`, turn an escaping
/// exception into one diagnostic (naming `program` on usage errors) and
/// the exit code of its error_type_of() class, then flush the span trace.
int guarded_main(const std::string& program,
                 const std::function<int()>& body);

namespace detail {
// The daemon's failpoint sites, as free functions so the fault-injection
// coverage test (tests/test_fault_injection.cpp) can drive each one
// directly; the server calls them from the instrumented paths.
void accept_failpoint();    ///< "serve.accept": throws wcm::io_error
void read_failpoint();      ///< "serve.read": throws wcm::io_error
void write_failpoint();     ///< "serve.write": throws wcm::io_error
void dispatch_failpoint();  ///< "serve.dispatch": throws simulation_error
/// "serve.trace.inject": throws simulation_error.  A triggered failure
/// degrades the request to "no trace context" (counted on
/// `serve.trace.drop`) — it must never cost a response.
void trace_inject_failpoint();
}  // namespace detail

}  // namespace wcm::serve
