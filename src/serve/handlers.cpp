#include "serve/handlers.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/generator.hpp"
#include "runtime/campaign.hpp"
#include "serve/ops.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"

namespace wcm::serve {

namespace {

/// Re-serialize a rendered JSON document as one sorted-key line, so any
/// library renderer (pretty-printed or not) can be spliced into a
/// line-delimited response without embedding a raw newline.
std::string as_one_line(const std::string& json_text) {
  return json::to_text(json::parse(json_text));
}

std::string hex_u64(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string run_generate(const json::Object& p) {
  WCM_SPAN("serve.generate");
  const auto params = params_from_json<GenerateParams>("generate", p);
  const sort::SortConfig& cfg = params.cfg;
  cfg.validate();
  const std::size_t n = params.n();
  const auto input = core::worst_case_input(n, cfg, params.attack_options());

  json::Object result;
  result.emplace("digest",
                 json::Value(hex_u64(fnv1a(
                     fnv_offset_basis, input.data(),
                     input.size() * sizeof(input[0])))));
  json::Array first;
  for (std::size_t i = 0; i < std::min<std::size_t>(16, n); ++i) {
    first.push_back(json::Value(static_cast<double>(input[i])));
  }
  result.emplace("first", json::Value(std::move(first)));
  result.emplace("inversion_fraction",
                 json::Value(workload::inversion_fraction(input)));
  result.emplace("n", json::Value(static_cast<double>(n)));
  result.emplace(
      "rounds_attacked",
      json::Value(static_cast<double>(core::attacked_round_count(n, cfg))));
  return json::to_text(json::Value(std::move(result)));
}

std::string run_prove(const json::Object& p) {
  WCM_SPAN("serve.prove");
  auto params = params_from_json<ProveParams>("prove", p);
  params.opts.json = true;
  const auto report =
      analyze::symbolic::prove(expand_engines(params.engine), params.opts);
  std::ostringstream os;
  analyze::symbolic::render_json(os, report);
  return as_one_line(os.str());
}

std::string run_certify(const json::Object& p) {
  WCM_SPAN("serve.certify");
  auto params = params_from_json<CertifyParams>("certify", p);
  params.opts.json = true;
  const auto cert =
      analyze::symbolic::certify_engine(params.engine, params.opts);
  std::ostringstream os;
  analyze::symbolic::render_json(os, cert);
  return as_one_line(os.str());
}

std::string run_campaign(const Request& req, const ServerConfig& cfg,
                         runtime::CancelSource* drain) {
  WCM_SPAN("serve.campaign");
  const auto spec_field = req.params.find("spec");
  // canonical_request() already rejected a missing/ill-typed spec.
  const auto spec =
      runtime::parse_campaign_spec(json::to_text(spec_field->second));

  runtime::CampaignOptions opts;
  opts.threads = cfg.threads;
  opts.use_cache = false;
  opts.cancel = drain;
  if (!cfg.data_dir.empty()) {
    // Durable state is keyed by the canonical request, which fixes the
    // spec and so the journal fingerprint: the journal alone holds every
    // cell a resubmission can reuse, so no WCMC cache is kept beside it.
    const std::string stem =
        "campaign-" + hex_u64(fnv1a(canonical_request(req)));
    opts.journal_path =
        std::filesystem::path(cfg.data_dir) / (stem + ".wcmj");
    opts.resume = true;
  }
  const auto outcome = runtime::run_campaign(spec, opts);
  if (telemetry::enabled()) {
    telemetry::Registry& reg = telemetry::registry();
    reg.counter("serve.campaign.cells").add(outcome.cells);
    reg.counter("serve.campaign.computed").add(outcome.computed);
    reg.counter("serve.campaign.replayed").add(outcome.replayed);
    reg.counter("serve.campaign.quarantined").add(outcome.quarantined.size());
  }
  if (outcome.interrupted()) {
    throw interrupted_error(
        "campaign drained with " + std::to_string(outcome.cancelled) +
        " cells pending; resubmit the identical request to resume");
  }

  // The aggregate is a pure function of the spec (docs/RUNTIME.md); the
  // volatile counts (computed/replayed, wall time) stay out of the
  // response so cold and warm answers are byte-identical.
  json::Object result;
  result.emplace("aggregate", json::parse(outcome.json));
  result.emplace("cells", json::Value(static_cast<double>(outcome.cells)));
  result.emplace("name", json::Value(spec.name));
  result.emplace("quarantined", json::Value(static_cast<double>(
                                    outcome.quarantined.size())));
  return json::to_text(json::Value(std::move(result)));
}

std::string run_metrics(const json::Object& p) {
  // The admin path answers inline, without canonical_request(), so the
  // params are decoded (and validated) here.
  const MetricsFormat format =
      params_from_json<MetricsParams>("metrics", p).format;
  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  if (format == MetricsFormat::json) {
    std::ostringstream os;
    snap.write_json(os);
    return as_one_line(os.str());
  }
  // Text and Prometheus expositions are line-oriented documents; wrap
  // them in a JSON envelope so the response stays one strict-JSON line.
  std::ostringstream os;
  if (format == MetricsFormat::prometheus) {
    telemetry::write_prometheus(os, snap);
  } else {
    snap.write_text(os);
  }
  json::Object result;
  result.emplace("body", json::Value(os.str()));
  result.emplace("format", json::Value(std::string(to_string(format))));
  return json::to_text(json::Value(std::move(result)));
}

std::string run_trace() {
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  return as_one_line(os.str());
}

}  // namespace

std::string execute(const Request& req, const ServerConfig& cfg,
                    runtime::CancelSource* drain) {
  if (req.op == "generate") {
    return run_generate(req.params);
  }
  if (req.op == "prove") {
    return run_prove(req.params);
  }
  if (req.op == "certify") {
    return run_certify(req.params);
  }
  if (req.op == "campaign") {
    return run_campaign(req, cfg, drain);
  }
  if (req.op == "metrics") {
    return run_metrics(req.params);
  }
  if (req.op == "trace") {
    return run_trace();
  }
  throw parse_error("unknown op '" + req.op + "'");
}

ErrorType error_type_of(const std::exception& e) noexcept {
  if (dynamic_cast<const parse_error*>(&e) != nullptr) {
    return ErrorType::parse;
  }
  if (dynamic_cast<const io_error*>(&e) != nullptr) {
    return ErrorType::io;
  }
  if (dynamic_cast<const interrupted_error*>(&e) != nullptr) {
    return ErrorType::interrupted;
  }
  if (dynamic_cast<const config_error*>(&e) != nullptr) {
    return ErrorType::config;
  }
  if (dynamic_cast<const simulation_error*>(&e) != nullptr) {
    return ErrorType::internal;
  }
  // Remaining contract violations are bad parameters (a generate request
  // whose E is not co-prime with w, a prove with w = 15), not bugs.
  if (dynamic_cast<const contract_error*>(&e) != nullptr) {
    return ErrorType::config;
  }
  return ErrorType::internal;
}

}  // namespace wcm::serve
