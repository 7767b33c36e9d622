#pragma once
// Request-scoped trace context: the correlation triple (trace_id, parent
// span_id, tenant) that the wcmd daemon threads from the wire protocol
// through batching, scheduler jobs, and down to kernel-round spans, so
// one Chrome-trace export shows a request's full causal tree across
// threads (docs/TELEMETRY.md "Request tracing").
//
// The context is a thread-local value installed with ScopedTraceContext
// (RAII save/restore, so nesting and retry re-entry are safe).  Span
// (telemetry/span.hpp) reads it on entry: every span recorded while a
// context is active carries the context's trace_id and tenant, gets a
// fresh span_id, and records the enclosing span's id as its parent —
// crossing threads whenever the context is re-installed on a worker
// (runtime::Job::trace).
//
// Ids are process-unique and never 0 (0 means "absent"); they are
// volatile like timestamps, so golden tests normalize them by order of
// first appearance rather than by value.

#include <string>

#include "util/math.hpp"

namespace wcm::telemetry {

/// The correlation triple.  trace_id == 0 means no active trace.
struct TraceContext {
  u64 trace_id = 0;
  u64 span_id = 0;  ///< id of the enclosing span (parent for new spans)
  std::string tenant;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context ({} when none is installed).
[[nodiscard]] const TraceContext& current_trace_context() noexcept;

/// Fresh process-unique ids; never 0.
[[nodiscard]] u64 next_trace_id() noexcept;
[[nodiscard]] u64 next_span_id() noexcept;

/// Wire rendering of an id: 16 lowercase hex digits, zero-padded (the
/// trace-field format of docs/SERVE.md).
[[nodiscard]] std::string trace_hex(u64 v);

/// Parse a wire id: 1..16 hex digits, optional "0x" prefix.  Returns
/// false (out untouched) on anything else — a corrupt trace field must
/// degrade to "no context", never to a refused request.
[[nodiscard]] bool parse_trace_hex(const std::string& text,
                                   u64& out) noexcept;

/// Install `ctx` as the calling thread's context for the current scope.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

namespace detail {
/// Mutable access for Span, which installs itself as the current parent
/// for the duration of its scope.  Not part of the public API.
[[nodiscard]] TraceContext& mutable_trace_context() noexcept;
}  // namespace detail

}  // namespace wcm::telemetry
