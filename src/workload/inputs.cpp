#include "workload/inputs.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace wcm::workload {

const char* to_string(InputKind kind) noexcept {
  switch (kind) {
    case InputKind::random:
      return "random";
    case InputKind::sorted:
      return "sorted";
    case InputKind::reversed:
      return "reversed";
    case InputKind::nearly_sorted:
      return "nearly-sorted";
    case InputKind::worst_case:
      return "worst-case";
  }
  return "?";
}

InputKind parse_input_kind(const std::string& name) {
  std::vector<std::pair<std::string, InputKind>> choices;
  for (const InputKind kind :
       {InputKind::random, InputKind::sorted, InputKind::reversed,
        InputKind::nearly_sorted, InputKind::worst_case}) {
    choices.emplace_back(to_string(kind), kind);
  }
  return cli::parse_choice("input", name, choices);
}

std::vector<word> random_permutation(std::size_t n, u64 seed) {
  std::vector<word> v(n);
  std::iota(v.begin(), v.end(), word{0});
  Xoshiro256 rng(seed);
  shuffle(v, rng);
  return v;
}

std::vector<word> sorted_input(std::size_t n) {
  std::vector<word> v(n);
  std::iota(v.begin(), v.end(), word{0});
  return v;
}

std::vector<word> reversed_input(std::size_t n) {
  std::vector<word> v(n);
  std::iota(v.rbegin(), v.rend(), word{0});
  return v;
}

std::vector<word> nearly_sorted_input(std::size_t n, std::size_t swaps,
                                      u64 seed) {
  std::vector<word> v = sorted_input(n);
  if (n < 2) {
    return v;
  }
  Xoshiro256 rng(seed);
  for (std::size_t k = 0; k < swaps; ++k) {
    const auto i = static_cast<std::size_t>(rng.below(n));
    const auto j = static_cast<std::size_t>(rng.below(n));
    std::swap(v[i], v[j]);
  }
  return v;
}

std::vector<word> make_input(InputKind kind, std::size_t n,
                             const sort::SortConfig& cfg, u64 seed) {
  switch (kind) {
    case InputKind::random:
      return random_permutation(n, seed);
    case InputKind::sorted:
      return sorted_input(n);
    case InputKind::reversed:
      return reversed_input(n);
    case InputKind::nearly_sorted:
      return nearly_sorted_input(n, n / 100 + 1, seed);
    case InputKind::worst_case: {
      // Shuffle the base tiles (invisible to every attacked round) so the
      // block sort behaves like it does on random data; the plain
      // ascending-tile variant is strictly gentler on the victim and is
      // covered by the ablation bench.
      core::AttackOptions opts;
      opts.tile_shuffle_seed = seed;
      return core::worst_case_input(n, cfg, opts);
    }
  }
  WCM_EXPECTS(false, "unknown input kind");
  return {};
}

bool is_permutation_of_iota(const std::vector<word>& v) {
  std::vector<bool> seen(v.size(), false);
  for (const word x : v) {
    if (x < 0 || static_cast<std::size_t>(x) >= v.size() ||
        seen[static_cast<std::size_t>(x)]) {
      return false;
    }
    seen[static_cast<std::size_t>(x)] = true;
  }
  return true;
}

}  // namespace wcm::workload
