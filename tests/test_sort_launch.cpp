// The tile launcher (sort/launch.hpp) that all six simulated engines build
// on: the bytes it must keep, the staging it fixed, and the phases it
// prices once per launch.
//
// tests/golden/sim/engines.txt pins one line per (shape, engine, layout,
// padding, input) cell, written by the engines as they were before they
// shared the launcher: every round's name and KernelStats counters, the
// modeled seconds, and FNV-1a digests of the recorded WCMT trace and of the
// output.  The merge-read and search sub-counters leave out their
// max_bank_degree (a running maximum whose window depends on where the
// stats are reset, read by nothing).  Regenerate only for a change that is
// meant to move the simulated machine, and say so in CHANGES.md.
//
// A recorded cell takes the full path: every warp step of every block is
// checked and priced.  An untraced cell prices each data-independent phase
// in its launch's first block only (gpusim::SharedMemory::oblivious), so
// the golden is read twice, once per path.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "sort/bitonic.hpp"
#include "sort/blocksort.hpp"
#include "sort/engines.hpp"
#include "sort/launch.hpp"
#include "sort/multiway.hpp"
#include "sort/radix.hpp"
#include "sort/scan.hpp"
#include "sort/shearsort.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
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

/// How a cell runs: recording its trace (the full path), untraced (the
/// data-independent phases priced once per launch), or untraced with a
/// failpoint armed that no sort reaches (the full path again).
enum class Path { traced, memo, armed };

struct CellRun {
  sort::SortReport report;
  std::vector<dmm::word> out;
  gpusim::Trace trace;  // empty unless recorded
};

/// Run `engine` ("scan" runs block_scan, the rest go through the engine
/// table with default knobs) on `input` along `path`.
CellRun run_cell(const std::string& engine, sort::SortConfig cfg,
                 const gpusim::Device& dev, std::span<const dmm::word> input,
                 Path path) {
  gpusim::TraceRecorder recorder;
  std::optional<failpoint::scoped_arm> armed;
  if (path == Path::traced) {
    cfg.trace_sink = &recorder;
  } else if (path == Path::armed) {
    armed.emplace("io.read.open");
  }
  CellRun run;
  run.report =
      engine == "scan"
          ? sort::block_scan(input, cfg, dev, &run.out)
          : sort::find_sorting_engine(engine).run(input, cfg, dev, {},
                                                  &run.out);
  run.trace = recorder.take();
  return run;
}

std::string out_digest(const std::vector<dmm::word>& out) {
  return hex(fnv1a(fnv_offset_basis, out.data(),
                   out.size() * sizeof(dmm::word)));
}

/// One golden line: `engine` on four tiles of `kind` input, seed 3.  The
/// trace digest is only there when the path records one.
std::string cell_line(const std::string& engine, const sort::SortConfig& cfg,
                      const gpusim::Device& dev, workload::InputKind kind,
                      Path path) {
  const std::size_t n = 4 * cfg.tile();
  const auto input = workload::make_input(kind, n, cfg, 3);
  const CellRun run = run_cell(engine, cfg, dev, input, path);
  const sort::SortReport& report = run.report;

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
  os << " | total=" << seconds(report.seconds());
  if (path == Path::traced) {
    std::ostringstream trace;
    gpusim::write_trace(trace, run.trace);
    os << " trace=" << hex(fnv1a(trace.str()));
  }
  os << " out=" << out_digest(run.out);
  return os.str();
}

/// The whole grid, in file order: 2 shapes x 6 engines x 3 layouts x
/// 2 paddings x 2 inputs = 144 lines.
std::vector<std::string> golden_lines(Path path) {
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
            lines.push_back(cell_line(engine, cfg, shape.dev, kind, path));
          }
        }
      }
    }
  }
  return lines;
}

/// A golden line without its " trace=<16 hex digits>" field.
std::string without_trace(std::string line) {
  const std::size_t at = line.find(" trace=");
  if (at != std::string::npos) {
    line.erase(at, 7 + 16);
  }
  return line;
}

// The traced pass reproduces every line byte for byte; the untraced pass,
// where later blocks reuse their launch's first-block price of every
// data-independent phase, reproduces every line but the trace digest.
TEST(SortLaunchGolden, EveryEngineReproducesItsPinnedBytes) {
  std::ifstream is(std::string(WCM_GOLDEN_DIR) + "/sim/engines.txt");
  ASSERT_TRUE(is) << "missing tests/golden/sim/engines.txt";
  std::vector<std::string> want;
  for (std::string line; std::getline(is, line);) {
    want.push_back(line);
  }
  ASSERT_EQ(want.size(), 144u);
  for (const Path path : {Path::traced, Path::memo}) {
    const std::vector<std::string> got = golden_lines(path);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], path == Path::traced ? want[i] : without_trace(want[i]))
          << (path == Path::traced ? "traced" : "untraced") << " cell " << i;
    }
  }
}

/// Every field of every round (each MachineStats with its
/// max_bank_degree), the modeled seconds, and the output's digest.
std::string full_line(const CellRun& run) {
  std::ostringstream os;
  for (const gpusim::RoundStats& r : run.report.rounds) {
    const gpusim::KernelStats& k = r.kernel;
    os << '[' << r.name << "] sh=" << machine(k.shared, true)
       << " mr=" << machine(k.shared_merge_reads, true)
       << " se=" << machine(k.shared_search, true)
       << " gt=" << k.global_transactions << " gr=" << k.global_requests
       << " bs=" << k.binary_search_steps << " wm=" << k.warp_merge_steps
       << " rc=" << k.register_compare_steps << " bl=" << k.blocks_launched
       << " el=" << k.elements_processed << " s=" << seconds(r.modeled_seconds)
       << " | ";
  }
  os << "total=" << seconds(run.report.seconds())
     << " out=" << out_digest(run.out);
  return os.str();
}

// The differential of the once-per-launch pricing: every engine, layout,
// padding and input gives the same bytes untraced as with a failpoint
// armed or a recorder attached (both force the full path).  A shape an
// engine or the input generator refuses must be refused alike.  The golden
// shapes and a w = 3 shape run on 1, 2 and 4 tiles under both forced
// paths.  The two perfbench tunings (7,680 and 4,352 keys a tile) run on
// 2 tiles, a first block and one that reuses its price, against the armed
// path only: at 4 tiles and with a recorder they would take minutes under
// the sanitizers.
TEST(ObliviousPricing, MatchesTheFullPath) {
  struct ShapeCell {
    sort::SortConfig cfg;
    gpusim::Device dev;
    std::vector<std::size_t> tiles;
    std::vector<Path> full_paths;
  };
  const std::vector<std::size_t> one_two_four{1, 2, 4};
  const std::vector<Path> both{Path::armed, Path::traced};
  const ShapeCell shapes[] = {
      {{5, 64, 32}, gpusim::quadro_m4000(), one_two_four, both},
      {{3, 8, 4}, gpusim::synthetic_device(4), one_two_four, both},
      {{5, 8, 3}, gpusim::synthetic_device(3), one_two_four, both},
      {{15, 512, 32}, gpusim::quadro_m4000(), {2}, {Path::armed}},
      {{17, 256, 32}, gpusim::rtx_2080ti(), {2}, {Path::armed}},
  };
  std::size_t compared = 0;
  std::size_t refused = 0;
  for (const ShapeCell& shape : shapes) {
    for (const char* engine :
         {"pairwise", "multiway", "bitonic", "radix", "shearsort", "scan"}) {
      for (const auto layout :
           {gpusim::LayoutKind::linear, gpusim::LayoutKind::xor_swizzle,
            gpusim::LayoutKind::rotation}) {
        for (const u32 pad : {0u, 1u}) {
          for (const auto kind : {workload::InputKind::random,
                                  workload::InputKind::worst_case}) {
            for (const std::size_t tiles : shape.tiles) {
              sort::SortConfig cfg = shape.cfg;
              cfg.layout = layout;
              cfg.padding = pad;
              const std::string where =
                  std::string(engine) + " w=" + std::to_string(cfg.w) +
                  " b=" + std::to_string(cfg.b) + " E=" +
                  std::to_string(cfg.E) + " " + gpusim::to_string(layout) +
                  " pad=" + std::to_string(pad) + " " +
                  workload::to_string(kind) + " tiles=" +
                  std::to_string(tiles);
              bool failed = false;
              const auto line = [&](Path path) -> std::string {
                try {
                  const auto input = workload::make_input(
                      kind, tiles * cfg.tile(), cfg, 3);
                  return full_line(
                      run_cell(engine, cfg, shape.dev, input, path));
                } catch (const error& e) {
                  failed = true;
                  return std::string("refused: ") + e.what();
                }
              };
              const std::string memo = line(Path::memo);
              for (const Path path : shape.full_paths) {
                EXPECT_EQ(line(path), memo)
                    << where
                    << (path == Path::traced ? " (traced)" : " (armed)");
              }
              ++(failed ? refused : compared);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared + refused, 3u * 216 + 2u * 72);
  EXPECT_EQ(compared, 552u);
}

// The memo lives in the SharedMemory, so a memory reused across block
// shapes must re-price each phase whose addresses follow from the shape:
// block sorts of b = 128 and then b = 64 on one memory give what each
// gives on a fresh one.
TEST(ObliviousPricing, ReusedMemoryRepricesANewBlockShape) {
  const auto stats_of = [](gpusim::SharedMemory& shm,
                           const sort::SortConfig& cfg) {
    auto tile = workload::random_permutation(cfg.tile(), 5);
    gpusim::KernelStats stats;
    shm.reset_stats();
    sort::simulate_block_sort(shm, tile, cfg, stats);
    return machine(shm.stats(), true) + " rc=" +
           std::to_string(stats.register_compare_steps);
  };
  const sort::SortConfig wide{5, 128, 32};
  const sort::SortConfig narrow{5, 64, 32};
  gpusim::SharedMemory fresh_wide(32, wide.tile());
  gpusim::SharedMemory fresh_narrow(32, wide.tile());
  const std::string want_wide = stats_of(fresh_wide, wide);
  const std::string want_narrow = stats_of(fresh_narrow, narrow);
  gpusim::SharedMemory shm(32, wide.tile());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(stats_of(shm, wide), want_wide) << "pass " << i;
    EXPECT_EQ(stats_of(shm, narrow), want_narrow) << "pass " << i;
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
