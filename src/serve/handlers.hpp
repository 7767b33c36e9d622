#pragma once
// Operation handlers of the wcmd daemon: map one validated request onto
// the library (core/generator, analyze/symbolic, runtime/campaign,
// telemetry) and render the result as one line of strict JSON.
//
// Handlers are pure with respect to the wire: the rendered result never
// contains a volatile field (no wall-clock times, no cache/computed
// counts), so the response to a given canonical request is byte-identical
// however it was produced — that is the substrate of the serve_ci
// cold/warm byte-compare.  Volatile facts go to telemetry counters
// (serve.campaign.* etc.) instead.

#include <string>

#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace wcm::runtime {
class CancelSource;
}  // namespace wcm::runtime

namespace wcm::serve {

/// Daemon configuration (the serve flags of wcmd / `wcmgen serve`).
struct ServerConfig {
  /// Unix-domain socket: a filesystem path, or `@name` for the Linux
  /// abstract namespace (no file on disk, vanishes with the process).
  std::string socket = "@wcmd";
  /// Durable state directory: the WCMS response cache plus one WCMJ
  /// journal per distinct campaign request — what makes a killed campaign
  /// resumable by resubmitting the identical request.  Empty = fully
  /// in-memory (nothing survives the process).
  std::string data_dir;
  u32 threads = 0;  ///< scheduler workers; 0 = WCM_THREADS, else 1
  std::size_t queue_max = 256;       ///< admission queue bound (then shed)
  std::size_t batch_max = 16;        ///< max requests per scheduler batch
  std::size_t max_connections = 64;  ///< concurrent clients (then shed)
};

/// Thrown when a drain cancels an in-flight campaign: the journal under
/// data_dir holds the completed prefix, so resubmitting the identical
/// request resumes instead of recomputing (ErrorType::interrupted).
class interrupted_error : public error {
 public:
  explicit interrupted_error(const std::string& what)
      : error(errc::simulation_invariant, what) {}
};

/// Execute one batched request (generate / prove / certify / campaign) or
/// an inline admin render (metrics / trace).  Returns the result as one
/// line of strict JSON; throws the wcm error taxonomy (plus
/// interrupted_error) on failure.  `drain` may be null.
[[nodiscard]] std::string execute(const Request& req, const ServerConfig& cfg,
                                  runtime::CancelSource* drain);

/// Map a caught exception onto the error taxonomy: the wire's `error.type`
/// in the daemon, and every front end's exit code (guarded_main).
[[nodiscard]] ErrorType error_type_of(const std::exception& e) noexcept;

}  // namespace wcm::serve
