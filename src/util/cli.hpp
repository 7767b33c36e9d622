#pragma once
// Command-line parsing shared by every front end (wcmgen, wcmd,
// wcm-loadgen): flags with declared arity, positional operands, and strict
// value parsing.
//
// A command declares its flags up front.  A value flag always takes the
// next token; a switch never does, so `--quiet spec.json` leaves
// `spec.json` an operand and `--any-E 7` leaves `7` a stray operand the
// command refuses.  Every failure is a wcm::parse_error (exit 2 in the
// front ends) naming the flag, so a typo never silently becomes a default.

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace wcm::cli {

/// One declared flag: its name without the leading "--", and whether it
/// takes a value (false: a switch whose presence is the value).
struct Flag {
  std::string name;
  bool takes_value = true;
};

/// argv[first..argc) as strings.
[[nodiscard]] std::vector<std::string> tokens(int argc, char** argv,
                                              int first);

/// One parsed command line.
class Args {
 public:
  /// Parse `tokens` against `flags` (`--help` is always accepted as a
  /// switch).  Tokens not starting with "--" are operands, refused unless
  /// `allow_operands`.  Throws wcm::parse_error on an unknown flag (naming
  /// `command` and the valid set), a value flag with no value, or a
  /// refused operand.  A repeated flag keeps its last value.
  Args(const std::vector<std::string>& tokens, const std::vector<Flag>& flags,
       const std::string& command, bool allow_operands = false);

  /// True iff the flag was given.
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] u64 get_u64(const std::string& name, u64 fallback,
                            u64 max = std::numeric_limits<u64>::max()) const;
  [[nodiscard]] u32 get_u32(const std::string& name, u32 fallback) const;
  [[nodiscard]] const std::vector<std::string>& operands() const noexcept {
    return operands_;
  }

 private:
  std::map<std::string, std::string> named_;
  std::vector<std::string> operands_;
};

/// Strict full-string parse of an unsigned decimal: rejects empty values,
/// signs, trailing garbage ("15x") and values above `max`.  `flag` names
/// the value in the diagnostic.
[[nodiscard]] u64 parse_u64(const std::string& flag, const std::string& text,
                            u64 max = std::numeric_limits<u64>::max());

/// Comma-separated unsigned decimals ("0,1,4"), each parsed as strictly as
/// a scalar u32 value.
[[nodiscard]] std::vector<u32> parse_u32_list(const std::string& flag,
                                              const std::string& text);

/// "a, b, c".
[[nodiscard]] std::string join(const std::vector<std::string>& items);

/// Strict choice parse: `value` must name one of `choices` exactly.
template <typename T>
T parse_choice(const std::string& flag, const std::string& value,
               const std::vector<std::pair<std::string, T>>& choices) {
  std::vector<std::string> names;
  names.reserve(choices.size());
  for (const auto& [name, v] : choices) {
    if (value == name) {
      return v;
    }
    names.push_back(name);
  }
  throw parse_error("unknown value '" + value + "' for " + flag +
                    " (valid: " + join(names) + ")");
}

}  // namespace wcm::cli
