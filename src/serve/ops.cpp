#include "serve/ops.hpp"

namespace wcm::serve {

core::AttackOptions GenerateParams::attack_options() const {
  core::AttackOptions opts;
  opts.tile_shuffle_seed = seed;
  opts.small_e_strategy = strategy;
  opts.attack_intra_block = intra;
  return opts;
}

const char* to_string(MetricsFormat format) noexcept {
  switch (format) {
    case MetricsFormat::json:
      return "json";
    case MetricsFormat::text:
      return "text";
    case MetricsFormat::prometheus:
      return "prometheus";
  }
  return "?";
}

MetricsFormat parse_metrics_format(const std::string& name) {
  return cli::parse_choice<MetricsFormat>(
      "format", name,
      {{"json", MetricsFormat::json},
       {"text", MetricsFormat::text},
       {"prometheus", MetricsFormat::prometheus}});
}

std::vector<std::string> expand_engines(const std::string& engine) {
  return engine == "all" ? analyze::symbolic::all_engines()
                         : std::vector<std::string>{engine};
}

void require_known_params(const std::string& op, const json::Object& params,
                          const std::vector<const char*>& known) {
  for (const auto& [key, value] : params) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw parse_error("unknown param '" + key + "' for op '" + op +
                        "' (valid: " +
                        cli::join({known.begin(), known.end()}) + ")");
    }
  }
}

}  // namespace wcm::serve
