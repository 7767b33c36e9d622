#include "sort/engines.hpp"

#include <bit>
#include <string>

#include "sort/bitonic.hpp"
#include "sort/describe.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "sort/shearsort.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace wcm::sort {

namespace {

using Knobs = EngineKnobs;

constexpr Engine kEngines[] = {
    {.name = "blocksort",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_blocksort(w, b, pad);
     }},
    {.name = "block-merge",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_block_merge(w, b, pad);
     }},
    {.name = "pairwise",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_pairwise(w, b, pad);
     },
     .sorter = [](std::span<const word> in, const SortConfig& cfg,
                  const gpusim::Device& dev, const Knobs& k,
                  std::vector<word>* out) {
       return pairwise_merge_sort(in, cfg, dev, k.library, out);
     },
     .reads_library = true},
    {.name = "multiway",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs& k) {
       return describe_multiway(w, b, pad, k.ways);
     },
     .sorter = [](std::span<const word> in, const SortConfig& cfg,
                  const gpusim::Device& dev, const Knobs& k,
                  std::vector<word>* out) {
       return multiway_merge_sort(in, cfg, dev, k.ways, out);
     },
     .reads_ways = true},
    {.name = "bitonic",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_bitonic(w, b, pad);
     },
     .sorter = [](std::span<const word> in, const SortConfig& cfg,
                  const gpusim::Device& dev, const Knobs&,
                  std::vector<word>* out) {
       return bitonic_sort(in, cfg, dev, out);
     },
     .pow2_prefix = true},
    {.name = "radix",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs& k) {
       return describe_radix(w, b, pad, k.digit_bits);
     },
     .sorter = [](std::span<const word> in, const SortConfig& cfg,
                  const gpusim::Device& dev, const Knobs& k,
                  std::vector<word>* out) {
       return radix_sort(in, cfg, dev, k.digit_bits, out);
     },
     .reads_digit_bits = true},
    {.name = "scan",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_block_scan(w, b, pad);
     }},
    {.name = "shearsort",
     .describe = [](u32 w, u32 b, u32 pad, const Knobs&) {
       return describe_shearsort(w, b, pad);
     },
     .sorter = [](std::span<const word> in, const SortConfig& cfg,
                  const gpusim::Device& dev, const Knobs&,
                  std::vector<word>* out) {
       return shearsort(in, cfg, dev, out);
     },
     .whole_warps = true},
};

const Engine& find_row(std::string_view name, bool sorting) {
  std::vector<std::string> names;
  for (const Engine& e : kEngines) {
    if (sorting && !e.sorts()) {
      continue;
    }
    if (e.name == name) {
      return e;
    }
    names.emplace_back(e.name);
  }
  throw parse_error("unknown " + std::string(sorting ? "sorting " : "") +
                    "engine '" + std::string(name) +
                    "' (valid: " + cli::join(names) + ")");
}

}  // namespace

Shape Engine::shape(const SortConfig& cfg, std::size_t n,
                    const EngineKnobs& knobs) const {
  WCM_CHECK_CONFIG(sorts(), std::string(name) + " is not a sorting engine");
  cfg.validate();
  WCM_CHECK_CONFIG(!reads_ways || knobs.ways >= 2, "need at least 2 ways");
  WCM_CHECK_CONFIG(
      !reads_digit_bits || (knobs.digit_bits >= 1 && knobs.digit_bits <= 16),
      "digit width must be 1..16");
  WCM_CHECK_CONFIG(!whole_warps || cfg.b % cfg.w == 0,
                   std::string(name) +
                       " needs whole warps per block (b a multiple of w)");
  Shape out{cfg, n};
  if (pow2_prefix) {
    out.cfg.E = 2;
    out.n = std::bit_floor(n);
    WCM_CHECK_CONFIG(out.n >= out.cfg.tile(),
                     std::string(name) + " sorts the power-of-two prefix of " +
                         std::to_string(n) + " keys, which is shorter than 2b");
  } else {
    WCM_CHECK_CONFIG(n > 0 && n % cfg.tile() == 0,
                     "input size must be a positive multiple of bE");
  }
  return out;
}

SortReport Engine::run(std::span<const word> input, const SortConfig& cfg,
                       const gpusim::Device& dev, const EngineKnobs& knobs,
                       std::vector<word>* output) const {
  const Shape s = shape(cfg, input.size(), knobs);
  return sorter(input.first(s.n), s.cfg, dev, knobs, output);
}

std::span<const Engine> engines() noexcept { return kEngines; }

const Engine& find_engine(std::string_view name) {
  return find_row(name, false);
}

const Engine& find_sorting_engine(std::string_view name) {
  return find_row(name, true);
}

}  // namespace wcm::sort
