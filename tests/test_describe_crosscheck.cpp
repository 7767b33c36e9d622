// Exhaustive small-parameter cross-check of every engine describer against
// concrete recorded traces: at small warp widths (synthetic_device) the
// whole configuration grid E in 1..8, b in {4, 8}, pad in {0, 1}, layout
// in {linear, xor, rotation} is cheap enough to run every engine end to
// end and certify the recorded trace against the bounds the symbolic
// prover derives for that exact cell.  Any describer whose IR under- or
// mis-declares an access pattern produces a step that exceeds its own
// bound, so this is the ground-truth audit of the describer layer — the
// certificates the wcm_certify_ci gate pins are only as good as these
// declarations.
//
// The sweep runs at w = 2, 3, and 4: w = 3 pins the parametric-w lift to
// a non-power-of-two warp, where every is_pow2(w) shortcut in a describer
// or bound derivation would go wrong silently.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analyze/symbolic/prove.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "sort/cpu_reference.hpp"
#include "sort/engines.hpp"
#include "util/error.hpp"
#include "workload/inputs.hpp"

namespace wcm {
namespace {

constexpr sort::EngineKnobs kKnobs{.ways = 2, .digit_bits = 1};

/// Run one engine at one grid cell, recording its trace; returns "" when
/// the cell is not the engine's own (so the caller can count real
/// coverage), the failure message when the trace breaks its bounds, and
/// "ok" otherwise.
std::string run_cell(const sort::Engine& engine, const sort::SortConfig& base,
                     const gpusim::Device& dev) {
  const std::string name(engine.name);
  sort::SortConfig cfg = base;
  // Two tiles so the global merge rounds (windows in the IR) are exercised.
  const std::size_t n = cfg.tile() * 2;
  // A cell the engine's shape rule refuses (shearsort needs whole warps
  // per block) or rewrites (bitonic runs at E = 2 only) is not its own.
  try {
    if (engine.shape(cfg, n, kKnobs).cfg.E != cfg.E) {
      return "";
    }
  } catch (const config_error&) {
    return "";
  }
  gpusim::TraceRecorder rec;
  cfg.trace_sink = &rec;
  const auto input = workload::random_permutation(n, 7 + cfg.E);
  std::vector<dmm::word> out;
  (void)engine.run(input, cfg, dev, kKnobs, &out);
  if (out != sort::std_sort(input)) {
    return name + " " + cfg.to_string() + ": did not sort";
  }

  analyze::symbolic::ProveOptions popts;
  popts.w = cfg.w;
  popts.b = cfg.b;
  popts.pad = cfg.padding;
  popts.layout = cfg.layout;
  popts.e_min = cfg.E;
  popts.e_max = cfg.E;
  popts.ways = kKnobs.ways;
  popts.digit_bits = kKnobs.digit_bits;
  const auto bounds = analyze::symbolic::prove_engine(name, popts);
  const auto findings =
      analyze::symbolic::certify_trace(rec.take(), bounds);
  if (findings.empty()) {
    return "ok";
  }
  std::ostringstream os;
  os << name << " " << cfg.to_string() << " pad " << cfg.padding
     << " layout " << gpusim::to_string(cfg.layout)
     << " exceeds its symbolic bound:\n";
  for (const auto& d : findings) {
    analyze::render_text(os, d);
  }
  return os.str();
}

std::size_t sweep_width(u32 w) {
  const auto dev = gpusim::synthetic_device(w);
  const gpusim::LayoutKind layouts[] = {gpusim::LayoutKind::linear,
                                        gpusim::LayoutKind::xor_swizzle,
                                        gpusim::LayoutKind::rotation};
  std::size_t covered = 0;
  for (const sort::Engine& engine : sort::engines()) {
    if (!engine.sorts()) {
      continue;  // the phases run inside pairwise
    }
    for (u32 e = 1; e <= 8; ++e) {
      for (const u32 b : {4u, 8u}) {
        if (b < 2 * w) {
          continue;  // a block must contain at least two warps
        }
        for (const u32 pad : {0u, 1u}) {
          for (const auto layout : layouts) {
            if (layout == gpusim::LayoutKind::xor_swizzle && !is_pow2(w)) {
              continue;  // the xor permutation is bijective for pow2 w only
            }
            sort::SortConfig cfg{e, b, w};
            cfg.padding = pad;
            cfg.layout = layout;
            cfg.validate();
            const std::string result = run_cell(engine, cfg, dev);
            if (result.empty()) {
              continue;  // engine inapplicable at this cell
            }
            EXPECT_EQ(result, "ok") << result;
            if (result != "ok") {
              return covered;
            }
            ++covered;
          }
        }
      }
    }
  }
  return covered;
}

TEST(DescribeCrosscheck, EveryEngineEveryCellStaysWithinItsBoundsW2) {
  // Four full-grid engines (8 E x 2 b x 2 pad x 3 layouts = 96 cells each)
  // plus bitonic at E = 2 (12 cells): the audit must never silently shrink.
  EXPECT_EQ(sweep_width(2), 4 * 96u + 12u);
}

TEST(DescribeCrosscheck, EveryEngineEveryCellStaysWithinItsBoundsW3) {
  // Non-power-of-two warp: b = 4 < 2w drops out, the xor layout needs
  // pow2 w, and shearsort needs w | b — leaving pairwise/multiway/radix
  // at 8 E x 1 b x 2 pad x 2 layouts = 32 cells each plus bitonic's 4.
  EXPECT_EQ(sweep_width(3), 3 * 32u + 4u);
}

TEST(DescribeCrosscheck, EveryEngineEveryCellStaysWithinItsBoundsW4) {
  // b = 4 < 2w drops out; the four full-grid engines keep 8 E x 1 b x
  // 2 pad x 3 layouts = 48 cells each plus bitonic's 6.
  EXPECT_EQ(sweep_width(4), 4 * 48u + 6u);
}

}  // namespace
}  // namespace wcm
