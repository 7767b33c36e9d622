// The tile launcher (sort/launch.hpp) that all six simulated engines build
// on: the bytes it must keep and the staging it fixed.
//
// tests/golden/sim/engines.txt pins one line per (shape, engine, layout,
// padding, input) cell, written by the engines as they were before they
// shared the launcher: every round's name and KernelStats counters, the
// modeled seconds, and FNV-1a digests of the recorded WCMT trace and of the
// output.  The merge-read and search sub-counters leave out their
// max_bank_degree (a running maximum whose window depends on where the
// stats are reset, read by nothing).  Regenerate only for a change that is
// meant to move the simulated machine, and say so in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "sort/bitonic.hpp"
#include "sort/engines.hpp"
#include "sort/launch.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "sort/scan.hpp"
#include "sort/shearsort.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "workload/inputs.hpp"

namespace wcm {
namespace {

std::string machine(const dmm::MachineStats& m, bool with_degree) {
  std::ostringstream os;
  os << m.steps << ',' << m.requests << ',' << m.serialization_cycles << ','
     << m.replays << ',' << m.conflicting_accesses;
  if (with_degree) {
    os << ',' << m.max_bank_degree;
  }
  return os.str();
}

std::string seconds(double s) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", s);
  return buf;
}

std::string hex(u64 h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One golden line: run `engine` ("scan" runs block_scan, the rest go
/// through the engine table with default knobs) on four tiles of `kind`
/// input, seed 3, recording its trace.
std::string cell_line(const std::string& engine, sort::SortConfig cfg,
                      const gpusim::Device& dev, workload::InputKind kind) {
  const std::size_t n = 4 * cfg.tile();
  const auto input = workload::make_input(kind, n, cfg, 3);
  gpusim::TraceRecorder recorder;
  cfg.trace_sink = &recorder;
  std::vector<dmm::word> out;
  const sort::SortReport report =
      engine == "scan"
          ? sort::block_scan(input, cfg, dev, &out)
          : sort::find_sorting_engine(engine).run(input, cfg, dev, {}, &out);
  std::ostringstream trace;
  gpusim::write_trace(trace, recorder.trace());

  std::ostringstream os;
  os << engine << " w=" << cfg.w << " b=" << cfg.b << " E=" << cfg.E << ' '
     << gpusim::to_string(cfg.layout) << " pad=" << cfg.padding << ' '
     << workload::to_string(kind) << " n=" << report.n;
  for (const gpusim::RoundStats& r : report.rounds) {
    const gpusim::KernelStats& k = r.kernel;
    os << " | [" << r.name << "] sh=" << machine(k.shared, true)
       << " mr=" << machine(k.shared_merge_reads, false)
       << " se=" << machine(k.shared_search, false)
       << " gt=" << k.global_transactions << " gr=" << k.global_requests
       << " bs=" << k.binary_search_steps << " wm=" << k.warp_merge_steps
       << " rc=" << k.register_compare_steps << " bl=" << k.blocks_launched
       << " el=" << k.elements_processed << " s=" << seconds(r.modeled_seconds);
  }
  os << " | total=" << seconds(report.seconds())
     << " trace=" << hex(fnv1a(trace.str()))
     << " out=" << hex(fnv1a(fnv_offset_basis, out.data(),
                             out.size() * sizeof(dmm::word)));
  return os.str();
}

/// The whole grid, in file order: 2 shapes x 6 engines x 3 layouts x
/// 2 paddings x 2 inputs = 144 lines.
std::vector<std::string> golden_lines() {
  struct ShapeCell {
    sort::SortConfig cfg;
    gpusim::Device dev;
  };
  const ShapeCell shapes[] = {
      {sort::SortConfig{5, 64, 32}, gpusim::quadro_m4000()},
      {sort::SortConfig{3, 8, 4}, gpusim::synthetic_device(4)},
  };
  std::vector<std::string> lines;
  for (const ShapeCell& shape : shapes) {
    for (const char* engine :
         {"pairwise", "multiway", "bitonic", "radix", "shearsort", "scan"}) {
      for (const auto layout :
           {gpusim::LayoutKind::linear, gpusim::LayoutKind::xor_swizzle,
            gpusim::LayoutKind::rotation}) {
        for (const u32 pad : {0u, 1u}) {
          for (const auto kind : {workload::InputKind::random,
                                  workload::InputKind::worst_case}) {
            sort::SortConfig cfg = shape.cfg;
            cfg.layout = layout;
            cfg.padding = pad;
            lines.push_back(cell_line(engine, cfg, shape.dev, kind));
          }
        }
      }
    }
  }
  return lines;
}

TEST(SortLaunchGolden, EveryEngineReproducesItsPinnedBytes) {
  std::ifstream is(std::string(WCM_GOLDEN_DIR) + "/sim/engines.txt");
  ASSERT_TRUE(is) << "missing tests/golden/sim/engines.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(is, line);) {
    want.push_back(line);
  }
  const std::vector<std::string> got = golden_lines();
  ASSERT_EQ(got.size(), 144u);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "cell " << i;
  }
}

/// Write steps between each host fill and the next barrier, one map of
/// address -> store count per such segment (the block sort's register
/// stores and every merge round's staging stores).
std::vector<std::map<std::size_t, int>> staged_writes(
    const gpusim::Trace& trace) {
  std::vector<std::map<std::size_t, int>> segments;
  bool open = false;
  for (const gpusim::TraceStep& step : trace.steps) {
    if (step.kind == gpusim::StepKind::fill) {
      if (!open) {
        segments.emplace_back();
        open = true;
      }
    } else if (step.kind == gpusim::StepKind::barrier) {
      open = false;
    } else if (open && step.is_write()) {
      for (const auto& [lane, addr] : step.accesses) {
        ++segments.back()[addr];
      }
    }
  }
  return segments;
}

// Pairwise and multiway stage a merge-round tile by thread: thread t < b
// stores t, t + b, ...  When w does not divide b, the last warp has lanes
// past thread b - 1; they must stay masked instead of storing addresses
// that belong to thread 0.
TEST(SortLaunchStaging, MergeRoundsStoreEachTileAddressOnceAtPartialWarps) {
  const sort::SortConfig base{5, 8, 3};
  const auto dev = gpusim::synthetic_device(3);
  const std::size_t tile = base.tile();
  for (const char* engine : {"pairwise", "multiway"}) {
    sort::SortConfig cfg = base;
    gpusim::TraceRecorder recorder;
    cfg.trace_sink = &recorder;
    const auto input = workload::random_permutation(2 * tile, 11);
    (void)sort::find_sorting_engine(engine).run(input, cfg, dev);
    const auto segments = staged_writes(recorder.trace());
    // Two block-sort tiles, then the one merge round's two tiles.
    ASSERT_EQ(segments.size(), 4u) << engine;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      EXPECT_EQ(segments[i].size(), tile) << engine << " segment " << i;
      for (const auto& [addr, count] : segments[i]) {
        EXPECT_LT(addr, tile) << engine << " segment " << i;
        EXPECT_EQ(count, 1) << engine << " segment " << i << " stores "
                            << addr << " " << count << " times";
      }
    }
  }
}

TEST(SortLaunch, SharedBytesIsOneFormula) {
  for (const u32 pad : {0u, 1u, 3u}) {
    sort::SortConfig cfg{15, 512, 32};
    cfg.padding = pad;
    EXPECT_EQ(cfg.shared_bytes(),
              sort::block_shared_bytes(cfg.tile(), cfg.w, pad));
  }
  // (words + words/w * pad) * 4: 100 words at w = 32 carry 3 padded rows.
  EXPECT_EQ(sort::block_shared_bytes(100, 32, 2), (100u + 3u * 2u) * 4u);
}

// A device whose warp differs from the configuration is a refused
// configuration (exit 4) for every engine, not a broken contract.
TEST(SortLaunch, WarpMismatchIsAConfigErrorInEveryEngine) {
  const sort::SortConfig cfg{4, 64, 32};
  const auto dev = gpusim::synthetic_device(16);
  const auto input = workload::random_permutation(4 * cfg.tile(), 1);
  const std::span<const dmm::word> keys(input);
  EXPECT_THROW((void)sort::pairwise_merge_sort(keys, cfg, dev), config_error);
  EXPECT_THROW((void)sort::multiway_merge_sort(keys, cfg, dev), config_error);
  EXPECT_THROW((void)sort::bitonic_sort(keys.first(512), cfg, dev),
               config_error);
  EXPECT_THROW((void)sort::radix_sort(keys, cfg, dev), config_error);
  EXPECT_THROW((void)sort::shearsort(keys, cfg, dev), config_error);
  EXPECT_THROW((void)sort::block_scan(keys, cfg, dev), config_error);
}

TEST(SortLaunch, InputThatIsNotWholeTilesIsAConfigError) {
  const sort::SortConfig cfg{4, 64, 32};
  const auto dev = gpusim::quadro_m4000();
  const auto input = workload::random_permutation(cfg.tile() + 1, 1);
  EXPECT_THROW((void)sort::radix_sort(input, cfg, dev), config_error);
  EXPECT_THROW((void)sort::shearsort(input, cfg, dev), config_error);
  EXPECT_THROW((void)sort::block_scan(input, cfg, dev), config_error);
}

}  // namespace
}  // namespace wcm
