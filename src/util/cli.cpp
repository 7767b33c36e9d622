#include "util/cli.hpp"

#include <charconv>

namespace wcm::cli {

std::vector<std::string> tokens(int argc, char** argv, int first) {
  std::vector<std::string> out;
  for (int i = first; i < argc; ++i) {
    out.emplace_back(argv[i]);
  }
  return out;
}

Args::Args(const std::vector<std::string>& tokens,
           const std::vector<Flag>& flags, const std::string& command,
           bool allow_operands) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      if (!allow_operands) {
        throw parse_error("unexpected argument '" + token +
                          "' (flags start with --)");
      }
      operands_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == name) {
        flag = &f;
      }
    }
    if (flag == nullptr && name != "help") {
      std::vector<std::string> valid;
      valid.reserve(flags.size());
      for (const Flag& f : flags) {
        valid.push_back("--" + f.name);
      }
      throw parse_error("unknown flag '" + token + "' for " + command +
                        " (valid: " + join(valid) + ")");
    }
    if (flag == nullptr || !flag->takes_value) {
      named_[name] = "";
      continue;
    }
    if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
      throw parse_error("flag " + token + " requires a value");
    }
    named_[name] = tokens[++i];
  }
}

bool Args::has(const std::string& name) const {
  return named_.count(name) > 0;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

u64 Args::get_u64(const std::string& name, u64 fallback, u64 max) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback
                            : parse_u64("--" + name, it->second, max);
}

u32 Args::get_u32(const std::string& name, u32 fallback) const {
  return static_cast<u32>(
      get_u64(name, fallback, std::numeric_limits<std::uint32_t>::max()));
}

u64 parse_u64(const std::string& flag, const std::string& text, u64 max) {
  if (text.empty()) {
    throw parse_error("flag " + flag + " requires a numeric value");
  }
  u64 value = 0;
  const auto [ptr, err] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (err != std::errc() || ptr != text.data() + text.size()) {
    throw parse_error("invalid value '" + text + "' for " + flag +
                      " (expected an unsigned integer)");
  }
  if (value > max) {
    throw parse_error("value " + text + " for " + flag +
                      " is out of range (max " + std::to_string(max) + ")");
  }
  return value;
}

std::vector<u32> parse_u32_list(const std::string& flag,
                                const std::string& text) {
  std::vector<u32> values;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    values.push_back(static_cast<u32>(
        parse_u64(flag, text.substr(start, end - start),
                  std::numeric_limits<std::uint32_t>::max())));
    if (comma == std::string::npos) {
      return values;
    }
    start = comma + 1;
  }
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    out += out.empty() ? "" : ", ";
    out += item;
  }
  return out;
}

}  // namespace wcm::cli
