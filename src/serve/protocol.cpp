#include "serve/protocol.hpp"

#include <sstream>

#include "serve/ops.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_context.hpp"
#include "util/error.hpp"

namespace wcm::serve {

const char* to_string(ErrorType type) noexcept {
  switch (type) {
    case ErrorType::parse:
      return "parse";
    case ErrorType::unknown_op:
      return "unknown_op";
    case ErrorType::config:
      return "config";
    case ErrorType::io:
      return "io";
    case ErrorType::too_large:
      return "too_large";
    case ErrorType::overloaded:
      return "overloaded";
    case ErrorType::deadline:
      return "deadline";
    case ErrorType::interrupted:
      return "interrupted";
    case ErrorType::internal:
      return "internal";
  }
  return "?";
}

bool is_batched_op(const std::string& op) {
  return op == "generate" || op == "prove" || op == "certify" ||
         op == "campaign";
}

namespace {

std::string canonical_campaign(const json::Object& p) {
  require_known_params("campaign", p, {"spec"});
  const auto it = p.find("spec");
  if (it == p.end() || !it->second.is_object()) {
    throw parse_error("op 'campaign' requires an object param 'spec' "
                      "(the embedded grid spec, docs/RUNTIME.md)");
  }
  // Re-serializing the spec sorts its keys, so wire field order cannot
  // split identical campaigns across cache slots.
  return "campaign|" + json::to_text(it->second);
}

/// Count one malformed trace field.  Tracing observes requests — a typo in
/// a correlation id must surface on a counter, never as a refused request.
void count_invalid_trace() {
  if (telemetry::enabled()) {
    telemetry::registry().counter("serve.trace.invalid").add(1);
  }
}

/// Tolerant decode of the optional "trace" request field: an object whose
/// `trace_id` / `parent_span_id` subfields are 1..16-digit hex strings.
/// Unknown subfields are ignored (a newer client may send more); any
/// corrupt value — wrong type, non-hex, non-object trace — degrades that
/// id to absent and bumps `serve.trace.invalid`.  Never throws.
void parse_trace_field(const json::Value& value, Request& req) {
  if (!value.is_object()) {
    count_invalid_trace();
    return;
  }
  for (const auto& [key, sub] : value.as_object()) {
    u64* target = nullptr;
    if (key == "trace_id") {
      target = &req.trace_id;
    } else if (key == "parent_span_id") {
      target = &req.parent_span_id;
    } else {
      continue;
    }
    u64 parsed = 0;
    if (sub.is_string() &&
        telemetry::parse_trace_hex(sub.as_string(), parsed)) {
      *target = parsed;
    } else {
      count_invalid_trace();
    }
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  const json::Value doc = json::parse(line);
  if (!doc.is_object()) {
    throw parse_error("request must be one JSON object per line");
  }
  const json::Object& fields = doc.as_object();
  for (const auto& [key, value] : fields) {
    if (key != "op" && key != "id" && key != "tenant" &&
        key != "deadline_ms" && key != "params" && key != "trace") {
      throw parse_error(
          "unknown request field '" + key +
          "' (valid: deadline_ms, id, op, params, tenant, trace)");
    }
  }
  Request req;
  const auto op = fields.find("op");
  if (op == fields.end()) {
    throw parse_error("request is missing the required field 'op'");
  }
  req.op = op->second.as_string();
  if (const auto it = fields.find("id"); it != fields.end()) {
    req.id = it->second.as_string();
  }
  if (const auto it = fields.find("tenant"); it != fields.end()) {
    req.tenant = it->second.as_string();
    if (req.tenant.empty() || req.tenant.size() > 64) {
      throw parse_error("field 'tenant' must be 1..64 characters");
    }
  }
  if (const auto it = fields.find("deadline_ms"); it != fields.end()) {
    // Cap at one hour: a larger budget than any operation is a typo.
    req.deadline_ms = it->second.as_u64(3'600'000);
  }
  if (const auto it = fields.find("params"); it != fields.end()) {
    req.params = it->second.as_object();
  }
  if (const auto it = fields.find("trace"); it != fields.end()) {
    parse_trace_field(it->second, req);
  }
  return req;
}

std::string canonical_request(const Request& req) {
  if (req.op == "generate") {
    return canonical(req.op,
                     params_from_json<GenerateParams>(req.op, req.params));
  }
  if (req.op == "prove") {
    return canonical(req.op, params_from_json<ProveParams>(req.op, req.params));
  }
  if (req.op == "certify") {
    return canonical(req.op,
                     params_from_json<CertifyParams>(req.op, req.params));
  }
  if (req.op == "campaign") {
    return canonical_campaign(req.params);
  }
  // The admin ops bypass the cache, but the canonical still names the
  // work in the event log and error messages; metrics carries its format.
  if (req.op == "metrics") {
    return canonical(req.op,
                     params_from_json<MetricsParams>(req.op, req.params));
  }
  // Remaining admin ops take no params; their canonical is the op name.
  require_known_params(req.op, req.params, {});
  return req.op;
}

std::string ok_response(const std::string& id,
                        const std::string& result_json) {
  std::ostringstream os;
  os << "{\"id\":";
  json::write_string(os, id);
  os << ",\"ok\":true,\"result\":" << result_json << "}";
  return os.str();
}

std::string error_response(const std::string& id, ErrorType type,
                           const std::string& message) {
  std::ostringstream os;
  os << "{\"error\":{\"message\":";
  json::write_string(os, message);
  os << ",\"type\":\"" << to_string(type) << "\"},\"id\":";
  json::write_string(os, id);
  os << ",\"ok\":false}";
  return os.str();
}

}  // namespace wcm::serve
