#include "sort/scan.hpp"

#include <algorithm>
#include <numeric>

#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

SortReport block_scan(std::span<const word> input, const SortConfig& cfg,
                      const gpusim::Device& dev, std::vector<word>* output) {
  WCM_EXPECTS(cfg.E >= 1, "E must be positive");
  WCM_EXPECTS(is_pow2(cfg.b) && cfg.b >= cfg.w,
              "block size must be a power of two >= warp size");
  // Every phase runs whole warps over the b threads (as the describer
  // assumes); a partial last warp would publish totals past the tile.
  WCM_CHECK_CONFIG(cfg.w >= 1 && cfg.b % cfg.w == 0,
                   "block size must be a multiple of the warp size");
  // Shared layout: the tile at [0, tile), per-thread totals at
  // [tile, tile + b).
  Launch launch({.engine = "scan", .extra_words = cfg.b, .sorts = false},
                input, cfg, dev);
  const std::size_t tile = launch.tile();
  const std::size_t n = launch.n();
  const u32 E = cfg.E;
  const u32 b = cfg.b;
  const u32 w = cfg.w;
  std::vector<word>& data = launch.keys();
  gpusim::SharedMemory& shm = launch.shm();
  std::vector<gpusim::LaneRead>& reads = launch.reads();
  std::vector<gpusim::LaneWrite>& writes = launch.writes();
  gpusim::KernelStats stats;

  WCM_SPAN("scan.block_scan");

  word carry = 0;
  for (std::size_t base = 0; base < n; base += tile) {
    launch.block(stats, [&] {
      WCM_SPAN("scan.tile");
      // Block boundary: one SharedMemory hosts many simulated blocks in
      // sequence, so each tile starts from a synchronized state.
      shm.barrier();
      shm.fill(std::span<const word>(data).subspan(base, tile));
      stats.global_transactions += tile / w;
      stats.global_requests += tile;

      // Phase 1: every thread serially scans its E consecutive elements —
      // the Dotsenko access pattern: at step s, lane t touches bank
      // (tE + s) mod w.  Read-modify-write in place.
      for (u32 warp_start = 0; warp_start < b; warp_start += w) {
        for (u32 s = 0; s < E; ++s) {
          reads.clear();
          for (u32 lane = 0; lane < w; ++lane) {
            reads.push_back(
                {lane,
                 static_cast<std::size_t>(warp_start + lane) * E + s});
          }
          shm.warp_read(reads);
          writes.clear();
          for (u32 lane = 0; lane < w; ++lane) {
            const std::size_t addr =
                static_cast<std::size_t>(warp_start + lane) * E + s;
            const word prev = s == 0 ? 0 : shm.peek(addr - 1);
            writes.push_back({lane, addr, shm.peek(addr) + prev});
          }
          shm.warp_write(writes);
        }
      }
      // Publish per-thread totals.
      for (u32 warp_start = 0; warp_start < b; warp_start += w) {
        writes.clear();
        for (u32 lane = 0; lane < w; ++lane) {
          const u32 t = warp_start + lane;
          writes.push_back(
              {lane, tile + t,
               shm.peek(static_cast<std::size_t>(t) * E + E - 1)});
        }
        shm.warp_write(writes);
      }
      // __syncthreads: phase 2 reads totals other threads published.
      shm.barrier();

      // Phase 2: Hillis–Steele scan over the b totals.
      for (u32 dist = 1; dist < b; dist <<= 1) {
        std::vector<word> updated(b);
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          reads.clear();
          for (u32 lane = 0; lane < w; ++lane) {
            const u32 t = warp_start + lane;
            reads.push_back({lane, tile + (t >= dist ? t - dist : t)});
          }
          shm.warp_read(reads);
        }
        // __syncthreads: every gather must finish before any total is
        // overwritten (the textbook double-buffer sync of Hillis-Steele).
        shm.barrier();
        for (u32 t = 0; t < b; ++t) {
          updated[t] = shm.peek(tile + t) +
                       (t >= dist ? shm.peek(tile + t - dist) : 0);
        }
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          writes.clear();
          for (u32 lane = 0; lane < w; ++lane) {
            const u32 t = warp_start + lane;
            writes.push_back({lane, tile + t, updated[t]});
          }
          shm.warp_write(writes);
        }
        // __syncthreads: the next round's gathers read these stores.
        shm.barrier();
      }

      // Phase 3: add the exclusive per-thread prefix back (same banked
      // pattern as phase 1).
      for (u32 warp_start = 0; warp_start < b; warp_start += w) {
        for (u32 s = 0; s < E; ++s) {
          reads.clear();
          writes.clear();
          for (u32 lane = 0; lane < w; ++lane) {
            const u32 t = warp_start + lane;
            const std::size_t addr = static_cast<std::size_t>(t) * E + s;
            reads.push_back({lane, addr});
            const word prefix = t == 0 ? 0 : shm.peek(tile + t - 1);
            writes.push_back({lane, addr, shm.peek(addr) + prefix});
          }
          shm.warp_read(reads);
          shm.warp_write(writes);
        }
      }

      const auto scanned = shm.dump(0, tile);
      for (std::size_t i = 0; i < tile; ++i) {
        data[base + i] = scanned[i] + carry;
      }
      carry = data[base + tile - 1];
      stats.global_transactions += tile / w;
      stats.global_requests += tile;
      stats.warp_merge_steps += static_cast<std::size_t>(b / w) * 2 * E;
    });
  }

  launch.close_round("block-scan", stats);
  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_block_scan(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(w > 0 && is_pow2(w) && b >= w && b % w == 0 && is_pow2(b),
              "block shape must be power-of-two multiples of the warp");
  ir::KernelDesc d;
  d.kernel = "scan";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  const int s = d.add_symbol("s", ir::SymRole::parameter, 0,
                             static_cast<i64>(w) - 2, 1, 0, e);
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  const int wse = d.add_symbol("wsE", ir::SymRole::warp_shift, 0, 0, w, 0);
  const ir::LinForm tile = ir::LinForm::sym(e, static_cast<i64>(b));
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::constant(static_cast<i64>(b) - static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(wse)].max_form =
      ir::LinForm::sym(e, static_cast<i64>(b) - static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(wse)].step_form =
      ir::LinForm::sym(e, static_cast<i64>(w));
  // Tile keys at [0, bE), the b per-thread totals at [bE, bE + b).
  d.words = tile + ir::LinForm::constant(static_cast<i64>(b));

  d.groups.push_back(ir::barrier_group("block entry"));
  d.groups.push_back(ir::with_region(
      ir::fill_group("tile load", "1 per tile"), ir::LinForm::constant(0),
      tile - ir::LinForm::constant(1)));
  // Phase 1: thread t serially accumulates its E consecutive elements —
  // the Dotsenko stride-E read-modify-write pattern.
  d.groups.push_back(ir::affine_group(
      "phase1 serial-scan load", ir::GroupKind::read, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps"));
  d.groups.push_back(ir::affine_group(
      "phase1 serial-scan store", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps"));
  d.groups.push_back(ir::affine_group(
      "totals publish", ir::GroupKind::write, w,
      tile + ir::LinForm::sym(ws), ir::LinForm::constant(1), "b/w warps"));
  d.groups.push_back(ir::barrier_group("before Hillis-Steele rounds"));

  // Phase 2: Hillis-Steele over the b per-thread totals at [bE, bE + b):
  // thread t gathers totals[t - dist] (or its own when t < dist), then
  // scatters after a barrier.
  for (u32 dist = 1; dist < b; dist *= 2) {
    const std::string tag = " (dist " + std::to_string(dist) + ")";
    if (dist < w) {
      // First warp: lanes below dist keep their own total, the rest reach
      // back dist slots — two stride-1 pieces of one block-aligned region.
      ir::StepGroup g;
      g.name = "totals gather" + tag + " (first warp)";
      g.kind = ir::GroupKind::read;
      g.repeat = "1 per round";
      g.pattern.kind = ir::PatternKind::pieces;
      ir::LanePiece keep;
      keep.lane_lo = 0;
      keep.lane_hi = dist - 1;
      keep.base = tile;
      keep.stride = ir::LinForm::constant(1);
      g.pattern.pieces.push_back(keep);
      ir::LanePiece reach;
      reach.lane_lo = dist;
      reach.lane_hi = w - 1;
      reach.base = tile;  // addr(lane) = bE + (lane - dist)
      reach.stride = ir::LinForm::constant(1);
      g.pattern.pieces.push_back(reach);
      d.groups.push_back(g);
      if (b > w) {
        d.groups.push_back(ir::affine_group(
            "totals gather" + tag + " (later warps)", ir::GroupKind::read, w,
            tile + ir::LinForm::sym(ws) +
                ir::LinForm::constant(-static_cast<i64>(dist)),
            ir::LinForm::constant(1), "b/w - 1 warps per round"));
      }
    } else {
      // dist is a multiple of w: the -dist reach-back (or none, below
      // dist) shifts whole warps uniformly and is absorbed by ws.
      d.groups.push_back(ir::affine_group(
          "totals gather" + tag, ir::GroupKind::read, w,
          tile + ir::LinForm::sym(ws), ir::LinForm::constant(1),
          "b/w warps per round"));
    }
    d.groups.push_back(ir::barrier_group("gather/scatter barrier" + tag));
    d.groups.push_back(ir::affine_group(
        "totals scatter" + tag, ir::GroupKind::write, w,
        tile + ir::LinForm::sym(ws), ir::LinForm::constant(1),
        "b/w warps per round"));
    d.groups.push_back(ir::barrier_group("round barrier" + tag));
  }

  // Phase 3: each thread adds its exclusive offset back into its E
  // elements — the phase-1 pattern again.
  d.groups.push_back(ir::affine_group(
      "phase3 offset load", ir::GroupKind::read, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps"));
  d.groups.push_back(ir::affine_group(
      "phase3 offset store", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps"));
  return d;
}

}  // namespace wcm::sort
