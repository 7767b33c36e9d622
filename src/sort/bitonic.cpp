#include "sort/bitonic.hpp"

#include <algorithm>

#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

u64 bitonic_comparator_count(std::size_t n) {
  if (n < 2) {
    return 0;
  }
  const u64 m = log2_exact(n);
  return static_cast<u64>(n / 2) * (m * (m + 1) / 2);
}

namespace {

/// Low element index of comparator `c` at the given stride (power of two).
std::size_t comparator_low(std::size_t c, std::size_t stride) {
  return ((c / stride) * (2 * stride)) | (c & (stride - 1));
}

/// Ascending iff bit `size` of the low element's global index is clear.
bool ascending(std::size_t global_low, std::size_t size) {
  return (global_low & size) == 0;
}

/// One global compare-exchange pass (stride >= tile): every element is read
/// and written once, coalesced; no shared memory.
void global_pass(std::vector<word>& data, std::size_t size,
                 std::size_t stride, u32 w, gpusim::KernelStats& stats) {
  const std::size_t n = data.size();
  for (std::size_t c = 0; c < n / 2; ++c) {
    const std::size_t l = comparator_low(c, stride);
    const std::size_t h = l + stride;
    const bool asc = ascending(l, size);
    if (asc ? data[l] > data[h] : data[l] < data[h]) {
      std::swap(data[l], data[h]);
    }
  }
  stats.global_transactions += 2 * (n / w);  // read all, write all
  stats.global_requests += 2 * n;
  stats.warp_merge_steps += (n / 2) / w;
}

using Substages = std::vector<std::pair<std::size_t, std::size_t>>;

/// Run every substage of `substages` (pairs of (size, stride), stride <
/// tile) for one tile staged in shared memory, with full warp-synchronous
/// accounting.
void shared_tile_pass(Launch& launch, std::span<word> tile_data,
                      std::size_t tile_base, const Substages& substages,
                      gpusim::KernelStats& stats) {
  gpusim::SharedMemory& shm = launch.shm();
  std::vector<gpusim::LaneRead>& reads = launch.reads();
  std::vector<gpusim::LaneWrite>& writes = launch.writes();
  const u32 b = launch.cfg().b;
  const u32 w = launch.cfg().w;
  const std::size_t tile = tile_data.size();

  // Block boundary: one SharedMemory hosts many simulated tiles in
  // sequence, so the kernel launch boundary is a barrier in the trace.
  shm.barrier();

  // Coalesced load, then warp-synchronous staging stores (thread t stores
  // elements t and t + b; conflict-free).
  stats.global_transactions += tile / w;
  stats.global_requests += tile;
  launch.stage_tile(tile_data);
  // __syncthreads: the comparators read other threads' staged elements.
  shm.barrier();

  for (const auto& [size, stride] : substages) {
    // Thread t owns comparator t of the tile (tile/2 == b comparators).
    for (u32 warp_start = 0; warp_start < b; warp_start += w) {
      const u32 lanes = std::min(w, b - warp_start);
      // Warp-synchronous: read lows, read highs, write lows, write highs.
      reads.clear();
      for (u32 lane = 0; lane < lanes; ++lane) {
        reads.push_back(
            {lane, comparator_low(warp_start + lane, stride)});
      }
      shm.warp_read(reads);
      reads.clear();
      for (u32 lane = 0; lane < lanes; ++lane) {
        reads.push_back(
            {lane, comparator_low(warp_start + lane, stride) + stride});
      }
      shm.warp_read(reads);

      // One buffer: the lows' stores, then the highs'.
      writes.resize(2 * lanes);
      for (u32 lane = 0; lane < lanes; ++lane) {
        const std::size_t l = comparator_low(warp_start + lane, stride);
        const std::size_t h = l + stride;
        word lo = shm.peek(l);
        word hi = shm.peek(h);
        if (ascending(tile_base + l, size) ? lo > hi : lo < hi) {
          std::swap(lo, hi);
        }
        writes[lane] = {lane, l, lo};
        writes[lanes + lane] = {lane, h, hi};
      }
      shm.warp_write(std::span(writes).first(lanes));
      shm.warp_write(std::span(writes).subspan(lanes));
    }
    stats.warp_merge_steps += b / w;
    // __syncthreads between substages: the comparator partition changes,
    // so the next substage (or the unstaging loads) reads other threads'
    // writes.
    shm.barrier();
  }

  // Warp-synchronous unstaging loads, then the coalesced store.
  launch.unstage_tile(tile_data);
  stats.global_transactions += tile / w;
  stats.global_requests += tile;
}

}  // namespace

SortReport bitonic_sort(std::span<const word> input, const SortConfig& cfg,
                        const gpusim::Device& dev, std::vector<word>* output) {
  WCM_EXPECTS(is_pow2(cfg.b) && cfg.b >= cfg.w,
              "block size must be a power of two >= warp size");
  const std::size_t tile = 2 * static_cast<std::size_t>(cfg.b);
  const std::size_t n = input.size();
  WCM_EXPECTS(n >= tile && is_pow2(n), "n must be a power of two >= 2b");
  Launch launch({.engine = "bitonic", .tile = tile}, input, cfg, dev);
  std::vector<word>& data = launch.keys();

  // Every tile in shared memory, through the same substages.
  const auto shared_pass = [&](const Substages& substages,
                               gpusim::KernelStats& stats) {
    for (std::size_t base = 0; base < n; base += tile) {
      launch.block(stats, [&] {
        shared_tile_pass(launch, std::span<word>(data).subspan(base, tile),
                         base, substages, stats);
      });
    }
  };

  WCM_SPAN("bitonic.sort");

  // Fused opening pass: every stage with size <= tile runs in shared.
  {
    WCM_SPAN("bitonic.opening_pass");
    gpusim::KernelStats stats;
    Substages substages;
    for (std::size_t size = 2; size <= tile; size <<= 1) {
      for (std::size_t stride = size / 2; stride > 0; stride >>= 1) {
        substages.emplace_back(size, stride);
      }
    }
    shared_pass(substages, stats);
    launch.close_round("bitonic stages <= tile", stats);
  }

  // Remaining stages: global passes down to the tile boundary, then one
  // fused shared tail per stage.
  for (std::size_t size = 2 * tile; size <= n; size <<= 1) {
    WCM_SPAN("bitonic.stage");
    gpusim::KernelStats stats;
    for (std::size_t stride = size / 2; stride >= tile; stride >>= 1) {
      global_pass(data, size, stride, cfg.w, stats);
      stats.blocks_launched += n / tile;
    }
    Substages tail;
    for (std::size_t stride = tile / 2; stride > 0; stride >>= 1) {
      tail.emplace_back(size, stride);
    }
    shared_pass(tail, stats);
    launch.close_round("bitonic stage " + std::to_string(log2_exact(size)),
                       stats);
  }

  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_bitonic(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(w > 0 && b >= w && is_pow2(b),
              "block size must be a power of two no smaller than the warp");
  ir::KernelDesc d;
  d.kernel = "bitonic";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const i64 tile = 2 * static_cast<i64>(b);
  d.words = ir::LinForm::constant(tile);
  const bool partial_warp = b % w != 0;
  // Bitonic runs at E = 2 over a tile of 2b words.  When w divides b every
  // warp-uniform base offset (warp_start, the staging half, comparator
  // block bases) is a multiple of w, so one warp-shift symbol absorbs them
  // all; otherwise only warp_start is, and the staging half offset needs
  // its own enumerable parameter.
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].max_form = ir::LinForm::constant(
      partial_warp ? last_warp : tile - static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  // Sub-warp comparator substages (sigma < w) split a warp into lane
  // blocks spanning 2w words, so their warp-uniform base steps by 2w up
  // to tile - 2w — half the reach of the generic shift.  The conflict
  // prover pins every shift to zero, but the def-use footprint analysis
  // reads the declared extent, so the tighter value set matters.
  const int ws2 = d.add_symbol("ws2", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 two_w = 2 * static_cast<i64>(w);
  d.symbols[static_cast<std::size_t>(ws2)].max_form =
      ir::LinForm::constant(two_w * ((tile - two_w) / two_w));
  d.symbols[static_cast<std::size_t>(ws2)].step_form =
      ir::LinForm::constant(two_w);
  const int half =
      partial_warp
          ? d.add_symbol("half", ir::SymRole::parameter, 0, 1)
          : -1;
  const ir::LinForm stage_base =
      partial_warp ? ir::LinForm::sym(ws) +
                         ir::LinForm::sym(half, static_cast<i64>(b))
                   : ir::LinForm::sym(ws);

  d.groups.push_back(ir::barrier_group("block entry"));
  ir::StepGroup stage = ir::affine_group(
      "stage store", ir::GroupKind::write, w, stage_base,
      ir::LinForm::constant(1), "2 steps x b/w warps");
  stage.masked = partial_warp;
  d.groups.push_back(std::move(stage));
  d.groups.push_back(ir::barrier_group("after staging"));

  // Comparator substages, largest stride first.  Thread c handles the pair
  // (low, low + sigma) with low = (c/sigma)*2*sigma + c%sigma.  For
  // sigma >= w (and sigma a multiple of w) a warp's lows are consecutive
  // and the +sigma offset is a multiple of w (absorbed); for 2*sigma
  // dividing w the warp splits into w/sigma lane blocks 2*sigma apart —
  // the classic power-of-two conflict the padded layout is there to fix.
  // Any other alignment (non-power-of-two w) falls back to a window: a
  // warp's lows (or highs) form at most (w-1)/sigma + 2 contiguous runs of
  // w addresses total inside the tile.
  for (u32 sigma = b; sigma >= 1; sigma /= 2) {
    const std::string tag = " (stride " + std::to_string(sigma) + ")";
    if (sigma >= w && sigma % w == 0) {
      for (const auto kind : {ir::GroupKind::read, ir::GroupKind::write}) {
        d.groups.push_back(ir::affine_group(
            (kind == ir::GroupKind::read ? "comparator load" + tag
                                         : "comparator store" + tag),
            kind, w, ir::LinForm::sym(ws), ir::LinForm::constant(1),
            "low then high, per substage pass"));
        d.groups.back().masked = partial_warp;
      }
    } else if (sigma < w && w % (2 * sigma) == 0) {
      for (const auto kind : {ir::GroupKind::read, ir::GroupKind::write}) {
        for (const i64 off : {i64{0}, static_cast<i64>(sigma)}) {
          ir::StepGroup g;
          g.name = std::string(kind == ir::GroupKind::read ? "comparator load"
                                                           : "comparator store") +
                   (off == 0 ? " low" : " high") + tag;
          g.kind = kind;
          g.repeat = "per substage pass";
          g.pattern.kind = ir::PatternKind::pieces;
          for (u32 m = 0; m < w / sigma; ++m) {
            ir::LanePiece piece;
            piece.lane_lo = m * sigma;
            piece.lane_hi = (m + 1) * sigma - 1;
            piece.base = ir::LinForm::sym(ws2) +
                         ir::LinForm::constant(
                             static_cast<i64>(2 * sigma * m) + off);
            piece.stride = ir::LinForm::constant(1);
            g.pattern.pieces.push_back(piece);
          }
          d.groups.push_back(g);
        }
      }
    } else {
      const i64 runs = (static_cast<i64>(w) - 1) / static_cast<i64>(sigma) + 2;
      for (const auto kind : {ir::GroupKind::read, ir::GroupKind::write}) {
        for (const char* side : {"low", "high"}) {
          d.groups.push_back(ir::with_region(
              ir::window_group(
                  std::string(kind == ir::GroupKind::read
                                  ? "comparator load "
                                  : "comparator store ") +
                      side + tag,
                  kind, w, ir::LinForm::constant(static_cast<i64>(w)),
                  ir::LinForm::constant(runs), "per substage pass"),
              ir::LinForm::constant(0), ir::LinForm::constant(tile - 1)));
          d.groups.back().masked = partial_warp;
        }
      }
    }
    d.groups.push_back(ir::barrier_group("substage barrier" + tag));
  }

  ir::StepGroup unstage = ir::affine_group(
      "unstage load", ir::GroupKind::read, w, stage_base,
      ir::LinForm::constant(1), "2 steps x b/w warps");
  unstage.masked = partial_warp;
  d.groups.push_back(std::move(unstage));
  return d;
}

}  // namespace wcm::sort
