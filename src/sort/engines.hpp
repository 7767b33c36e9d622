#pragma once
// The engine table: one row per simulated engine, in the prover's order
// (blocksort, block-merge, pairwise, multiway, bitonic, radix, scan,
// shearsort).  It is the only dispatch on an engine name: `wcmgen prove`,
// `verify`, `sort` and `profile`, the campaign grid and the describer
// cross-check all read it, so adding an engine is one row in engines.cpp.
//
// Every row holds the engine's describer (sort/describe.hpp).  The five
// engines that sort also hold a sorter, the knobs it reads, and its shape
// rule: the launch it actually runs for a requested configuration and
// input size.  Engine::shape() is the one check of that rule; run()
// applies it before sorting, and campaign expansion applies it up front so
// a cell the engine would refuse is a config error before any cell runs.

#include <span>
#include <string_view>
#include <vector>

#include "gpusim/access_ir.hpp"
#include "sort/pairwise_sort.hpp"

namespace wcm::sort {

/// The tuning knobs of the engines; each engine reads only its own.
struct EngineKnobs {
  MergeSortLibrary library = MergeSortLibrary::thrust;  ///< pairwise
  u32 ways = 4;        ///< multiway fan-in (>= 2)
  u32 digit_bits = 4;  ///< radix digit width (1..16)
};

/// What an engine launches for a request: its configuration and the length
/// of the input prefix it sorts.
struct Shape {
  SortConfig cfg;
  std::size_t n = 0;
};

struct Engine {
  using Describer = gpusim::ir::KernelDesc (*)(u32 w, u32 b, u32 pad,
                                               const EngineKnobs& knobs);
  using Sorter = SortReport (*)(std::span<const word> input,
                                const SortConfig& cfg,
                                const gpusim::Device& dev,
                                const EngineKnobs& knobs,
                                std::vector<word>* output);

  std::string_view name;
  Describer describe = nullptr;
  /// Null for the phases (blocksort, block-merge, scan) that only run
  /// inside another engine.
  Sorter sorter = nullptr;
  bool reads_library = false;
  bool reads_ways = false;
  bool reads_digit_bits = false;
  /// Shape rule: every thread owns E = 2 keys and the engine sorts the
  /// largest power-of-two prefix of its input (the bitonic network).
  bool pow2_prefix = false;
  /// Shape rule: the block must split into whole warps (b a multiple of
  /// w) — for the describer as well as for a run.
  bool whole_warps = false;

  [[nodiscard]] bool sorts() const noexcept { return sorter != nullptr; }

  /// The shape this engine runs for `cfg` and an `n`-key input.  Throws
  /// wcm::config_error when the engine refuses the request (invalid
  /// config, knob out of range, or an input it cannot tile).
  [[nodiscard]] Shape shape(const SortConfig& cfg, std::size_t n,
                            const EngineKnobs& knobs) const;

  /// Sort `input` as this engine runs it: apply shape(), then sort the
  /// shaped prefix.  `output`, when non-null, receives the sorted prefix.
  [[nodiscard]] SortReport run(std::span<const word> input,
                               const SortConfig& cfg,
                               const gpusim::Device& dev,
                               const EngineKnobs& knobs = {},
                               std::vector<word>* output = nullptr) const;
};

/// Every row, in the prover's order.
[[nodiscard]] std::span<const Engine> engines() noexcept;

/// The row named `name`.  Throws wcm::parse_error listing every row.
[[nodiscard]] const Engine& find_engine(std::string_view name);

/// The sorting row named `name`.  Throws wcm::parse_error listing the rows
/// that sort.
[[nodiscard]] const Engine& find_sorting_engine(std::string_view name);

}  // namespace wcm::sort
