#include "sort/pairwise_sort.hpp"

#include <algorithm>
#include <utility>

#include "mergepath/partition.hpp"
#include "sort/block_merge.hpp"
#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"

namespace wcm::sort {

const char* to_string(MergeSortLibrary lib) noexcept {
  return lib == MergeSortLibrary::thrust ? "Thrust" : "ModernGPU";
}

const char* library_name(MergeSortLibrary lib) noexcept {
  return lib == MergeSortLibrary::thrust ? "thrust" : "mgpu";
}

MergeSortLibrary parse_library(const std::string& name) {
  return cli::parse_choice<MergeSortLibrary>(
      "library", name,
      {{library_name(MergeSortLibrary::thrust), MergeSortLibrary::thrust},
       {library_name(MergeSortLibrary::mgpu), MergeSortLibrary::mgpu}});
}

gpusim::Calibration library_calibration(MergeSortLibrary lib) {
  gpusim::Calibration cal;
  if (lib == MergeSortLibrary::thrust) {
    cal.compute_cycles_per_merge_step = 28.0;
    cal.launch_overhead_s = 3.0e-6;
  } else {
    // Modern GPU executes measurably more instructions per merged element
    // than Thrust on the same algorithm (Karsin et al. 2018 observe the
    // Thrust > MGPU throughput ordering the paper's Fig. 4 shows).
    cal.compute_cycles_per_merge_step = 38.0;
    cal.launch_overhead_s = 4.0e-6;
  }
  return cal;
}

namespace {

/// Coalesced-transaction count of a contiguous global access of `count`
/// elements starting at global element index `base` (128-byte segments of
/// 32 4-byte lanes).
std::size_t coalesced_transactions(std::size_t base, std::size_t count,
                                   u32 w) {
  if (count == 0) {
    return 0;
  }
  const std::size_t first = base / w;
  const std::size_t last = (base + count - 1) / w;
  return last - first + 1;
}

/// Merge one pair of sorted runs into `out`, one simulated thread block
/// per bE-element output tile.
void simulate_pair_merge(Launch& launch, std::span<const word> data_a,
                         std::span<const word> data_b, std::size_t a_base,
                         std::size_t b_base, std::span<word> out,
                         gpusim::KernelStats& stats) {
  const SortConfig& cfg = launch.cfg();
  gpusim::SharedMemory& shm = launch.shm();
  const std::size_t tile = launch.tile();
  const u32 E = cfg.E;
  const u32 b = cfg.b;
  const u32 w = cfg.w;

  // Partitioning stage: mutual binary search in global memory for every
  // tile boundary (one dependent probe chain per thread block).
  const auto part = mergepath::partition_tiles(data_a, data_b, tile);
  stats.binary_search_steps += part.search_steps;
  stats.global_requests += 2 * part.search_steps;
  stats.global_transactions += 2 * part.search_steps;  // uncoalesced probes

  std::vector<ThreadSearchCtx> search_ctxs(b);
  std::vector<ThreadMergeCtx> merge_ctxs(b);
  std::vector<word> staged;
  staged.reserve(tile);

  const std::size_t tiles = (data_a.size() + data_b.size()) / tile;
  for (std::size_t tidx = 0; tidx < tiles; ++tidx) {
    launch.block(stats, [&] {
      const auto [a_lo, b_lo] = part.splits[tidx];
      const auto [a_hi, b_hi] = part.splits[tidx + 1];
      const std::size_t na = a_hi - a_lo;
      const std::size_t nb = b_hi - b_lo;

      // Block boundary between consecutive simulated tiles.
      shm.barrier();

      // Stage the tile in shared memory: A segment at [0, na), B segment at
      // [na, na + nb).  Global side is coalesced; the shared-side stores go
      // through the banked memory.
      const auto seg_a = data_a.subspan(a_lo, na);
      const auto seg_b = data_b.subspan(b_lo, nb);
      staged.assign(seg_a.begin(), seg_a.end());
      staged.insert(staged.end(), seg_b.begin(), seg_b.end());
      shm.fill(seg_a, 0);
      shm.fill(seg_b, na);
      stats.global_transactions += coalesced_transactions(a_base + a_lo, na, w);
      stats.global_transactions += coalesced_transactions(b_base + b_lo, nb, w);
      stats.global_requests += tile;
      launch.stage_tile(staged);
      // __syncthreads: the searches probe other threads' staged elements.
      shm.barrier();

      // In-block merge-path searches: thread t owns output ranks
      // [tE, (t+1)E) of the tile.
      for (u32 t = 0; t < b; ++t) {
        search_ctxs[t] = {0, na, na, na + nb,
                          static_cast<std::size_t>(t) * E};
      }
      const auto coranks = simulate_block_search(shm, search_ctxs, stats);
      for (u32 t = 0; t < b; ++t) {
        const bool last = t + 1 == b;
        merge_ctxs[t].a_begin = coranks[t].i;
        merge_ctxs[t].a_end = last ? na : coranks[t + 1].i;
        merge_ctxs[t].b_begin = na + coranks[t].j;
        merge_ctxs[t].b_end = na + (last ? nb : coranks[t + 1].j);
        merge_ctxs[t].out_begin = static_cast<std::size_t>(t) * E;
      }

      // Lock-step merge to registers, barrier, write-back to shared in rank
      // order (this is the attacked access stream).
      simulate_block_merge(shm, merge_ctxs, E, /*write_back=*/true, stats,
                           cfg.realistic_refills);

      // Coalesced store to global: thread t reads shared elements t, t+b,
      // ... (bank-conflict free) and writes them out coalesced.
      launch.unstage_tile(out.subspan(tidx * tile, tile));
      stats.global_transactions += tile / w;
      stats.global_requests += tile;
    });
  }
}

}  // namespace

SortReport recost(const SortReport& report, const gpusim::Device& dev,
                  MergeSortLibrary lib) {
  WCM_EXPECTS(report.config.w == dev.warp_size,
              "config warp size must match device");
  const gpusim::LaunchConfig launch{report.n / report.config.tile(),
                                    report.config.b,
                                    report.config.shared_bytes()};
  SortReport out = report;
  out.device = dev;
  out.reprice(launch, library_calibration(lib));
  return out;
}

SortReport pairwise_merge_sort(std::span<const word> input,
                               const SortConfig& cfg,
                               const gpusim::Device& dev,
                               MergeSortLibrary lib,
                               std::vector<word>* output) {
  cfg.validate();
  Launch launch({.engine = "pairwise", .ping_pong = true, .library = lib},
                input, cfg, dev);
  const std::size_t n = launch.n();

  WCM_SPAN("pairwise.sort");

  // Base case: every block sorts its own tile.
  launch.block_sort_round("pairwise.block_sort");

  // Global pairwise merge rounds: merge adjacent runs until one run is left.
  std::size_t run = launch.tile();
  u32 round_idx = 0;
  while (run < n) {
    ++round_idx;
    WCM_SPAN("pairwise.merge_round");
    WCM_FAILPOINT("sort.pairwise.round", simulation_error,
                  "injected mid-round invariant break");
    const std::span<const word> data(launch.keys());
    const std::span<word> buffer(launch.buffer());
    gpusim::KernelStats stats;
    const std::size_t out_run = 2 * run;
    for (std::size_t base = 0; base < n; base += out_run) {
      if (base + run >= n) {
        // Unpaired trailing run: copied through.
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(base),
                  data.end(),
                  buffer.begin() + static_cast<std::ptrdiff_t>(base));
        const std::size_t rem = n - base;
        stats.global_transactions += 2 * ceil_div(rem, cfg.w);
        stats.global_requests += 2 * rem;
        continue;
      }
      const std::size_t len_b = std::min(run, n - base - run);
      simulate_pair_merge(launch, data.subspan(base, run),
                          data.subspan(base + run, len_b), base, base + run,
                          buffer.subspan(base, run + len_b), stats);
    }
    launch.swap();

    launch.close_round("merge round " + std::to_string(round_idx), stats);
    run = out_run;
  }

  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_pairwise(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  ir::KernelDesc d = describe_blocksort(w, b, pad);
  d.kernel = "pairwise";
  const int e = d.find_symbol("E");
  const int s = d.find_symbol("s");
  const int wse = d.find_symbol("wsE");
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  // ws stands for warp_start itself: {0, w, ..., w*floor((b-1)/w)}.
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::constant(last_warp);
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);
  const bool partial_warp = b % w != 0;

  // One global merge round (every round repeats the same shapes): two
  // sorted runs are staged into the b*E tile coalesced, merge-path
  // searched, lock-step merged, written back in rank order, unstaged.
  d.groups.push_back(ir::barrier_group("global round entry"));
  d.groups.push_back(ir::with_region(
      ir::fill_group("stage source runs", "1 per round"),
      ir::LinForm::constant(0), tile_hi));
  ir::StepGroup stage = ir::affine_group(
      "stage store", ir::GroupKind::write, w,
      ir::LinForm::sym(ws) + ir::LinForm::sym(s, static_cast<i64>(b)),
      ir::LinForm::constant(1), "E steps x b/w warps x rounds");
  stage.masked = partial_warp;
  d.groups.push_back(std::move(stage));
  d.groups.push_back(ir::barrier_group("after staging"));
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "global search probes", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(b)), ir::LinForm::constant(1),
          "<= ceil(log2(bE/2+1)) bisection iterations, A then B probes"),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "global merge reads", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(w)), ir::LinForm::constant(2),
          "E lock-step iterations x b/w warps x rounds", /*atomic=*/false,
          /*theorem_site=*/true),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::barrier_group("pre/post write-back barrier"));
  d.groups.back().repeat = "2 per round";
  ir::StepGroup wb = ir::affine_group(
      "global merge write-back", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps x rounds");
  wb.masked = partial_warp;
  d.groups.push_back(std::move(wb));
  ir::StepGroup unstage = ir::affine_group(
      "unstage load", ir::GroupKind::read, w,
      ir::LinForm::sym(ws) + ir::LinForm::sym(s, static_cast<i64>(b)),
      ir::LinForm::constant(1), "E steps x b/w warps x rounds");
  unstage.masked = partial_warp;
  d.groups.push_back(std::move(unstage));
  return d;
}

}  // namespace wcm::sort
