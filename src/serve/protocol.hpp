#pragma once
// Wire protocol of the wcmd daemon (docs/SERVE.md).
//
// Transport is a Unix-domain stream socket carrying line-delimited strict
// JSON: one request object per line, one response object per line, in
// request order per connection.  Requests:
//
//   {"op":"generate","id":"r1","tenant":"ci","deadline_ms":2000,
//    "params":{"E":5,"b":64,"k":2},
//    "trace":{"trace_id":"00000000000000a7"}}
//
// `op` is required; `id` (echo token), `tenant` (cache shard, default
// "default"), `deadline_ms` (queueing budget, 0 = none), `params`
// (op-specific object) and `trace` (correlation ids, docs/SERVE.md
// "Request tracing") are optional.  Unlike every other field, `trace` is
// parsed *tolerantly*: unknown subfields are ignored and corrupt values
// degrade to "no context" — tracing observes requests, it must never
// fail one.  Responses are either
//
//   {"id":"r1","ok":true,"result":{...}}
//   {"error":{"message":"...","type":"parse"},"id":"r1","ok":false}
//
// rendered with util/json's writer — object keys in sorted order, no
// volatile fields (no timing, no cached-vs-computed flag) — so the same
// request yields the byte-identical response line on a cold cache, a warm
// cache, and any WCM_THREADS setting.  That determinism contract is what
// the serve_ci gate byte-compares.
//
// canonical_request() maps a cacheable request onto the normalized
// parameter string its cache key and single-flight key hash: defaults
// applied, fields in fixed order, tenant and id excluded.  Two requests
// with equal canonicals are the same work by construction.

#include <string>

#include "util/json.hpp"
#include "util/math.hpp"

namespace wcm::serve {

/// Protocol revision; bump on any wire-visible change.
inline constexpr u32 protocol_version = 1;

/// Hard bound on one request line (newline included).  Longer lines are
/// answered with a `too_large` error and discarded without parsing.
inline constexpr std::size_t max_request_bytes = 64 * 1024;

/// Typed error classes a response can carry (`error.type`).
enum class ErrorType {
  parse,        ///< malformed JSON, unknown field, bad value
  unknown_op,   ///< `op` names no operation
  config,       ///< parameters violate an E/b/w-style constraint
  io,           ///< daemon-side file failure (cache, journal, spec)
  too_large,    ///< request line exceeds max_request_bytes
  overloaded,   ///< admission queue full — load shed, retry later
  deadline,     ///< deadline_ms expired while the request was queued
  interrupted,  ///< drain cancelled the operation (campaign; resumable)
  internal,     ///< anything else (simulator invariant, unexpected error)
};

[[nodiscard]] const char* to_string(ErrorType type) noexcept;

/// One decoded request line.
struct Request {
  std::string op;
  std::string id;                  ///< echoed verbatim in the response
  std::string tenant = "default";  ///< response-cache shard
  u64 deadline_ms = 0;             ///< 0 = no deadline
  json::Object params;
  // Optional trace context from the wire ("trace" object field,
  // docs/SERVE.md): correlation ids the daemon threads through batching,
  // scheduler jobs, and kernel spans.  0 = absent (the daemon mints a
  // trace_id itself).  Trace fields are observability-only: they never
  // enter canonical_request(), the cache key, or the response bytes, and
  // a corrupt trace field degrades to "absent" (counted on
  // `serve.trace.invalid`) instead of refusing the request.
  u64 trace_id = 0;
  u64 parent_span_id = 0;
};

/// True iff `op` names an operation the daemon dispatches through the
/// batch scheduler and answers from the tenant cache (generate, prove,
/// certify, campaign) — as opposed to the admin ops (metrics, trace,
/// health, drain) the connection thread answers inline.
[[nodiscard]] bool is_batched_op(const std::string& op);

/// Decode one request line.  Throws wcm::parse_error on malformed JSON,
/// a non-object document, an unknown or wrongly-typed field, a missing
/// `op`, or an empty/oversized tenant name.
[[nodiscard]] Request parse_request(const std::string& line);

/// Normalized parameter string of a batched request: op-specific defaults
/// applied, fields in fixed order, independent of `id`/`tenant` and of the
/// JSON field order on the wire.  Throws wcm::parse_error on unknown or
/// ill-typed params (so a bad request is refused before it can join a
/// flight or occupy a queue slot).
[[nodiscard]] std::string canonical_request(const Request& req);

/// Render the success response line (no trailing newline).  `result_json`
/// must be one strict-JSON value; it is spliced in verbatim.
[[nodiscard]] std::string ok_response(const std::string& id,
                                      const std::string& result_json);

/// Render the typed error response line (no trailing newline).
[[nodiscard]] std::string error_response(const std::string& id,
                                         ErrorType type,
                                         const std::string& message);

}  // namespace wcm::serve
