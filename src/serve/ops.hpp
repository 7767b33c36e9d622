#pragma once
// Params of the daemon's ops, declared once (docs/SERVE.md).
//
// Each op lists its params — wire name, type, bound and default — in one
// declare() below, with defaults taken from the library's option structs
// (SortConfig, ProveOptions, CertifyOptions).  That one list drives the
// JSON decode of a request, the canonical string its cache key hashes,
// and the flags of the wcmgen subcommands that mirror an op (generate,
// prove, prove --certify, metrics), so the cache key, the executed work
// and the CLI cannot disagree on a name, a bound or a default.  A param's
// flag is its wire name with '_' spelled '-' (E_min -> --E-min).

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "analyze/symbolic/certify.hpp"
#include "analyze/symbolic/prove.hpp"
#include "core/generator.hpp"
#include "core/small_e.hpp"
#include "gpusim/layout.hpp"
#include "sort/config.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace wcm::serve {

/// `generate`: the sort configuration plus the attack knobs.
struct GenerateParams {
  sort::SortConfig cfg;
  u32 k = 4;  ///< n = bE * 2^k
  u64 seed = 1;
  core::AlignmentStrategy strategy = core::AlignmentStrategy::front_to_back;
  bool intra = false;

  [[nodiscard]] std::size_t n() const noexcept { return cfg.tile() << k; }
  /// The attack the params select (every global round attacked).
  [[nodiscard]] core::AttackOptions attack_options() const;
};

/// `prove`: an engine name (or "all") and the prover's options.
struct ProveParams {
  std::string engine = "all";
  analyze::symbolic::ProveOptions opts;
};

/// `certify`: one engine and the certification grid.
struct CertifyParams {
  std::string engine = "shearsort";
  analyze::symbolic::CertifyOptions opts;
};

/// Exposition formats of the `metrics` op (docs/TELEMETRY.md).
enum class MetricsFormat { json, text, prometheus };
[[nodiscard]] const char* to_string(MetricsFormat format) noexcept;
/// Throws wcm::parse_error naming the valid set.
[[nodiscard]] MetricsFormat parse_metrics_format(const std::string& name);

struct MetricsParams {
  MetricsFormat format = MetricsFormat::json;
};

/// "all" -> every engine the prover knows, else just `engine`.
[[nodiscard]] std::vector<std::string> expand_engines(
    const std::string& engine);

/// Throws wcm::parse_error when `params` holds a key outside `known`.
void require_known_params(const std::string& op, const json::Object& params,
                          const std::vector<const char*>& known);

// ---- the declarations -----------------------------------------------------

/// A param's wire name and, where it differs, its label in the canonical
/// string.
struct ParamName {
  ParamName(const char* wire_name)  // implicit: most params need no label
      : wire(wire_name), label(wire_name) {}
  ParamName(const char* wire_name, const char* canonical_label)
      : wire(wire_name), label(canonical_label) {}
  const char* wire;
  const char* label;
};

// Each declare() visits its params in canonical order as
// `v(name, field[, max])`; `max` bounds a numeric param below its type's
// range.

template <typename V>
void declare(sort::SortConfig& c, V& v) {
  v("E", c.E);
  v("b", c.b);
  v("w", c.w);
  v(ParamName("padding", "pad"), c.padding);
  v("layout", c.layout);
}

template <typename V>
void declare(GenerateParams& p, V& v) {
  declare(p.cfg, v);
  v("k", p.k, 40);
  v("seed", p.seed);
  v("strategy", p.strategy);
  v("intra", p.intra);
}

/// The E range and engine knobs prove and certify share.
template <typename Options, typename V>
void declare_symbolic_range(Options& o, V& v) {
  v("layout", o.layout);
  v("E_min", o.e_min);
  v("E_max", o.e_max);
  v("any_E", o.any_e);
  v("ways", o.ways);
  v("digit_bits", o.digit_bits);
}

template <typename V>
void declare(ProveParams& p, V& v) {
  v("engine", p.engine);
  v("w", p.opts.w);
  v("b", p.opts.b);
  v("pad", p.opts.pad);
  declare_symbolic_range(p.opts, v);
}

template <typename V>
void declare(CertifyParams& p, V& v) {
  v("engine", p.engine);
  v("w", p.opts.w);
  v("bs", p.opts.bs);
  v("pads", p.opts.pads);
  declare_symbolic_range(p.opts, v);
}

template <typename V>
void declare(MetricsParams& p, V& v) {
  v("format", p.format);
}

// ---- readers and writers over the declarations ----------------------------

namespace detail {

inline constexpr u64 no_max = std::numeric_limits<u64>::max();

template <typename T>
inline constexpr bool is_number = std::is_same_v<T, u32> ||
                                  std::is_same_v<T, u64>;

inline void parse_word(const std::string& s, std::string& f) { f = s; }
inline void parse_word(const std::string& s, gpusim::LayoutKind& f) {
  f = gpusim::parse_layout_kind(s);
}
inline void parse_word(const std::string& s, core::AlignmentStrategy& f) {
  f = core::parse_alignment_strategy(s);
}
inline void parse_word(const std::string& s, MetricsFormat& f) {
  f = parse_metrics_format(s);
}

template <typename T>
void decode(const json::Value& value, T& field, u64 max) {
  if constexpr (std::is_same_v<T, bool>) {
    field = value.as_bool();
  } else if constexpr (is_number<T>) {
    field = static_cast<T>(value.as_u64(
        std::min<u64>(max, std::numeric_limits<T>::max())));
  } else if constexpr (std::is_same_v<T, std::vector<u32>>) {
    const json::Array& items = value.as_array();
    if (items.empty()) {
      throw parse_error("list must not be empty");
    }
    field.clear();
    for (const json::Value& item : items) {
      field.push_back(static_cast<u32>(
          item.as_u64(std::numeric_limits<std::uint32_t>::max())));
    }
  } else {
    parse_word(value.as_string(), field);
  }
}

template <typename T>
void parse_flag(const std::string& flag, const std::string& text, T& field,
                u64 max) {
  if constexpr (std::is_same_v<T, bool>) {
    field = true;  // a switch: present means true
  } else if constexpr (is_number<T>) {
    field = static_cast<T>(cli::parse_u64(
        flag, text, std::min<u64>(max, std::numeric_limits<T>::max())));
  } else if constexpr (std::is_same_v<T, std::vector<u32>>) {
    field = cli::parse_u32_list(flag, text);
  } else {
    parse_word(text, field);
  }
}

template <typename T>
std::string canonical_text(const T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    return field ? "1" : "0";
  } else if constexpr (is_number<T>) {
    return std::to_string(field);
  } else if constexpr (std::is_same_v<T, std::vector<u32>>) {
    std::string out;
    for (const u32 v : field) {
      out += out.empty() ? "" : ",";
      out += std::to_string(v);
    }
    return out;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else {
    return to_string(field);
  }
}

inline std::string flag_of(const char* wire) {
  std::string flag = wire;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

}  // namespace detail

/// Decode `op`'s params from a request; absent params keep their
/// defaults.  Throws wcm::parse_error on an unknown, ill-typed or
/// out-of-range param.
template <typename Params>
[[nodiscard]] Params params_from_json(const std::string& op,
                                      const json::Object& params) {
  Params out;
  std::vector<const char*> known;
  known.reserve(16);
  auto read = [&](ParamName name, auto& field, u64 max = detail::no_max) {
    known.push_back(name.wire);
    const auto it = params.find(name.wire);
    if (it == params.end()) {
      return;
    }
    try {
      detail::decode(it->second, field, max);
    } catch (const parse_error& e) {
      throw parse_error(std::string("param '") + name.wire + "': " +
                        e.what());
    }
  };
  declare(out, read);
  require_known_params(op, params, known);
  return out;
}

/// The normalized "op|label=value|..." string of decoded params: every
/// param present, in declaration order, independent of the wire's field
/// order.
template <typename Params>
[[nodiscard]] std::string canonical(const std::string& op, Params params) {
  std::string out = op;
  auto write = [&](ParamName name, auto& field, u64 = 0) {
    out += '|';
    out += name.label;
    out += '=';
    out += detail::canonical_text(field);
  };
  declare(params, write);
  return out;
}

/// Overwrite the params given as flags on a command line.
template <typename Params>
void read_flags(const cli::Args& args, Params& params) {
  auto read = [&](ParamName name, auto& field, u64 max = detail::no_max) {
    const std::string flag = detail::flag_of(name.wire);
    if (args.has(flag)) {
      detail::parse_flag("--" + flag, args.get(flag, ""), field, max);
    }
  };
  declare(params, read);
}

/// The flags `Params` declares; bool params are switches.
template <typename Params>
[[nodiscard]] std::vector<cli::Flag> flags_of() {
  Params params;
  std::vector<cli::Flag> flags;
  auto collect = [&](ParamName name, auto& field, u64 = 0) {
    flags.push_back({detail::flag_of(name.wire),
                     !std::is_same_v<std::decay_t<decltype(field)>, bool>});
  };
  declare(params, collect);
  return flags;
}

}  // namespace wcm::serve
