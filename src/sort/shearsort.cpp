#include "sort/shearsort.hpp"

#include <algorithm>
#include <functional>

#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

namespace {

/// Sort row `r` of the staged mesh in registers: one stride-1 warp load,
/// a warp-internal sort (shuffle network in a real kernel — only the
/// shared accesses are accounted), one stride-1 warp store.  Snake order:
/// even rows ascend, odd rows descend.
void row_pass(gpusim::SharedMemory& shm, std::size_t r, u32 w,
              std::vector<gpusim::LaneRead>& reads,
              std::vector<gpusim::LaneWrite>& writes) {
  const std::size_t base = r * w;
  reads.clear();
  for (u32 lane = 0; lane < w; ++lane) {
    reads.push_back({lane, base + lane});
  }
  shm.warp_read(reads);
  std::vector<word> row(w);
  for (u32 lane = 0; lane < w; ++lane) {
    row[lane] = shm.peek(base + lane);
  }
  if (r % 2 == 0) {
    std::sort(row.begin(), row.end());
  } else {
    std::sort(row.begin(), row.end(), std::greater<word>());
  }
  writes.clear();
  for (u32 lane = 0; lane < w; ++lane) {
    writes.push_back({lane, base + lane, row[lane]});
  }
  shm.warp_write(writes);
}

/// Sort column `c` in registers: ceil(R/w) stride-w warp loads (lane l
/// holds row rb + l), a cross-lane register sort, stride-w stores.  The
/// stride-w steps are the engine's only conflict candidates: a full w-way
/// conflict on the linear layout, conflict-free under padding with
/// gcd(pad, w) = 1 or under the xor/rotation permutations.
void column_pass(gpusim::SharedMemory& shm, std::size_t c, std::size_t rows,
                 u32 w, std::vector<gpusim::LaneRead>& reads,
                 std::vector<gpusim::LaneWrite>& writes) {
  std::vector<word> column(rows);
  for (std::size_t rb = 0; rb < rows; rb += w) {
    const u32 lanes = static_cast<u32>(std::min<std::size_t>(w, rows - rb));
    reads.clear();
    for (u32 lane = 0; lane < lanes; ++lane) {
      reads.push_back({lane, (rb + lane) * w + c});
    }
    shm.warp_read(reads);
    for (u32 lane = 0; lane < lanes; ++lane) {
      column[rb + lane] = shm.peek((rb + lane) * w + c);
    }
  }
  std::sort(column.begin(), column.end());
  for (std::size_t rb = 0; rb < rows; rb += w) {
    const u32 lanes = static_cast<u32>(std::min<std::size_t>(w, rows - rb));
    writes.clear();
    for (u32 lane = 0; lane < lanes; ++lane) {
      writes.push_back({lane, (rb + lane) * w + c, column[rb + lane]});
    }
    shm.warp_write(writes);
  }
}

/// ceil(log2 rows) shear iterations, then the final row pass (0-1
/// principle: each row+column pair halves the dirty rows).
u32 shear_iterations(std::size_t rows) {
  u32 iters = 0;
  while ((std::size_t{1} << iters) < rows) {
    ++iters;
  }
  return iters;
}

/// The warp steps of one tile: stage, shear until snake-sorted, and
/// unstage in snake order so the tile leaves row-major ascending.
void shear_steps(Launch& launch, std::span<word> tile_data) {
  gpusim::SharedMemory& shm = launch.shm();
  std::vector<gpusim::LaneRead>& reads = launch.reads();
  std::vector<gpusim::LaneWrite>& writes = launch.writes();
  const u32 w = launch.cfg().w;
  const std::size_t rows = tile_data.size() / w;

  // Thread-linear warp-synchronous staging stores (thread t stores
  // elements t, t + b, ..., t + (E-1)b; stride-1).
  launch.stage_tile(tile_data);
  // __syncthreads: row/column warps read other warps' staged keys.
  shm.barrier();

  const u32 iters = shear_iterations(rows);
  for (u32 it = 0; it < iters; ++it) {
    for (std::size_t r = 0; r < rows; ++r) {
      row_pass(shm, r, w, reads, writes);
    }
    shm.barrier();
    for (std::size_t c = 0; c < w; ++c) {
      column_pass(shm, c, rows, w, reads, writes);
    }
    shm.barrier();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    row_pass(shm, r, w, reads, writes);
  }
  shm.barrier();

  // Unstage in snake order (odd rows reversed), one warp step per row.
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = r * w;
    reads.clear();
    for (u32 lane = 0; lane < w; ++lane) {
      const std::size_t col = r % 2 == 0 ? lane : w - 1 - lane;
      reads.push_back({lane, base + col});
    }
    shm.warp_read(reads);
    for (u32 lane = 0; lane < w; ++lane) {
      const std::size_t col = r % 2 == 0 ? lane : w - 1 - lane;
      tile_data[base + lane] = shm.peek(base + col);
    }
  }
}

/// Sort one tile on the mesh.  Every address the mesh touches follows from
/// the tile size and b alone (compare-exchanges move values, never
/// addresses), so the tile's steps are priced once per launch and a repeat
/// sorts the keys directly.  The global and merge-step counts are closed
/// forms of (tile, w, rows) and count for every block.
void shear_tile(Launch& launch, std::span<word> tile_data,
                gpusim::KernelStats& stats) {
  const u32 w = launch.cfg().w;
  const std::size_t tile = tile_data.size();
  const std::size_t rows = tile / w;
  const u32 iters = shear_iterations(rows);

  // Block boundary: one SharedMemory hosts many simulated tiles.
  launch.shm().barrier();
  // Coalesced load and store; one merge step per row pass and per column
  // row-block.
  stats.global_transactions += 2 * (tile / w);
  stats.global_requests += 2 * tile;
  stats.warp_merge_steps += iters * (rows + w * ceil_div(rows, w)) + rows;
  launch.shm().oblivious(
      {"shearsort tile", tile, launch.cfg().b},
      [&] { shear_steps(launch, tile_data); },
      [&] { std::sort(tile_data.begin(), tile_data.end()); });
}

}  // namespace

SortReport shearsort(std::span<const word> input, const SortConfig& cfg,
                     const gpusim::Device& dev, std::vector<word>* output) {
  cfg.validate();
  // The mesh is w columns by bE/w rows and the staging loop writes full
  // warps; both need the block to split into whole warps.
  WCM_EXPECTS(cfg.b % cfg.w == 0, "block size must be a multiple of the warp");
  Launch launch({.engine = "shearsort"}, input, cfg, dev);
  const std::size_t tile = launch.tile();
  const std::size_t n = launch.n();
  std::vector<word>& data = launch.keys();

  WCM_SPAN("shearsort.sort");

  // Per-tile mesh sort in shared memory.
  {
    WCM_SPAN("shearsort.tiles");
    gpusim::KernelStats stats;
    for (std::size_t base = 0; base < n; base += tile) {
      launch.block(stats, [&] {
        shear_tile(launch, std::span<word>(data).subspan(base, tile), stats);
      });
    }
    launch.close_round("shearsort tiles", stats);
  }

  // Pairwise merge of sorted runs in global memory: coalesced streaming,
  // no shared-memory traffic, so the engine's conflict certificate covers
  // the whole sort.
  u32 round_idx = 0;
  for (std::size_t run = tile; run < n; run *= 2) {
    WCM_SPAN("shearsort.merge_round");
    ++round_idx;
    gpusim::KernelStats stats;
    for (std::size_t base = 0; base + run < n; base += 2 * run) {
      const std::size_t hi = std::min(base + 2 * run, n);
      std::inplace_merge(data.begin() + static_cast<std::ptrdiff_t>(base),
                         data.begin() + static_cast<std::ptrdiff_t>(base + run),
                         data.begin() + static_cast<std::ptrdiff_t>(hi));
      stats.global_transactions += 2 * (hi - base) / cfg.w;
      stats.global_requests += 2 * (hi - base);
      stats.warp_merge_steps += (hi - base) / cfg.w;
    }
    stats.blocks_launched += n / (2 * run);
    stats.elements_processed += n;

    launch.close_round("merge round " + std::to_string(round_idx), stats);
  }

  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_shearsort(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(w > 0 && b >= w && b % w == 0,
              "block shape must be a positive multiple of the warp");
  ir::KernelDesc d;
  d.kernel = "shearsort";
  d.w = w;
  d.b = b;
  d.pad = pad;
  // Every row base (r*w) and row-block base (rb*w) is a multiple of w and
  // uniform across the warp: one warp-shift symbol absorbs them all.  The
  // column index is the engine's only range parameter; the mesh height R
  // only changes how *many* stride-w steps run, never their shape (partial
  // last warps are lane prefixes of the declared full-warp pattern, whose
  // degree dominates).  The staging bases warp_start + s*b and the row
  // bases r*w jointly sweep every multiple of w in [0, bE - w] (w | b), so
  // the shift's value set is exactly {0, w, 2w, ..., bE - w}.
  // Parameters first: a warp shift's extent may only reference symbols
  // declared before it (the divergence pass rejects forward references).
  const int c = d.add_symbol("c", ir::SymRole::parameter, 0, w - 1);
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::sym(e, static_cast<i64>(b)) -
      ir::LinForm::constant(static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  d.words = ir::LinForm::sym(e, static_cast<i64>(b));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);

  d.groups.push_back(ir::barrier_group("block entry"));
  d.groups.push_back(ir::affine_group(
      "stage store", ir::GroupKind::write, w, ir::LinForm::sym(ws),
      ir::LinForm::constant(1), "E steps x b/w warps"));
  d.groups.push_back(ir::barrier_group("after staging"));

  d.groups.push_back(ir::affine_group(
      "row load", ir::GroupKind::read, w, ir::LinForm::sym(ws),
      ir::LinForm::constant(1), "per row per shear iteration"));
  d.groups.push_back(ir::affine_group(
      "row store", ir::GroupKind::write, w, ir::LinForm::sym(ws),
      ir::LinForm::constant(1), "per row per shear iteration"));
  d.groups.push_back(ir::barrier_group("rows sorted"));

  // The theorem-relevant site: lane l touches (rb + l)*w + c — a pure
  // stride-w column traversal.  The shift models the row-block base rb*w
  // (multiples of w^2), so the generic ws extent over-approximates the
  // footprint; the declared region restores the kernel's tile containment.
  d.groups.push_back(ir::with_region(
      ir::affine_group(
          "column load", ir::GroupKind::read, w,
          ir::LinForm::sym(ws) + ir::LinForm::sym(c), ir::LinForm::constant(w),
          "per column row-block per shear iteration"),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::with_region(
      ir::affine_group(
          "column store", ir::GroupKind::write, w,
          ir::LinForm::sym(ws) + ir::LinForm::sym(c), ir::LinForm::constant(w),
          "per column row-block per shear iteration"),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::barrier_group("columns sorted"));

  d.groups.push_back(ir::affine_group(
      "unstage load even row", ir::GroupKind::read, w, ir::LinForm::sym(ws),
      ir::LinForm::constant(1), "per even row"));
  d.groups.push_back(ir::affine_group(
      "unstage load odd row", ir::GroupKind::read, w,
      ir::LinForm::sym(ws) + ir::LinForm::constant(w - 1),
      ir::LinForm::constant(-1), "per odd row"));
  return d;
}

}  // namespace wcm::sort
