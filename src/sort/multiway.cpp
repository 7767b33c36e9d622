#include "sort/multiway.hpp"

#include <algorithm>
#include <numeric>

#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::sort {

std::size_t multiway_round_count(std::size_t n, const SortConfig& cfg,
                                 u32 ways) {
  WCM_EXPECTS(ways >= 2, "need at least 2 ways");
  std::size_t runs = n / cfg.tile();
  std::size_t rounds = 0;
  while (runs > 1) {
    runs = ceil_div(runs, ways);
    ++rounds;
  }
  return rounds;
}

namespace {

/// K-way co-rank at output rank `diag` over sorted runs: the per-run counts
/// (i_1..i_K) of the stable K-way merge prefix (ties go to the lowest run
/// index).  `steps` accumulates the value-domain bisection iterations (the
/// dependent probe chain the partitioning stage pays).
std::vector<std::size_t> kway_corank(
    const std::vector<std::span<const word>>& runs, std::size_t diag,
    std::size_t& steps) {
  std::vector<std::size_t> split(runs.size(), 0);
  std::size_t total = 0;
  for (const auto& r : runs) {
    total += r.size();
  }
  WCM_EXPECTS(diag <= total, "diagonal beyond the runs");
  if (diag == 0) {
    return split;
  }
  if (diag == total) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      split[k] = runs[k].size();
    }
    return split;
  }

  // Smallest value v with count_le(v) >= diag, by bisection on the value
  // domain spanned by the runs.
  word lo = runs[0].empty() ? 0 : runs[0].front();
  word hi = lo;
  for (const auto& r : runs) {
    if (!r.empty()) {
      lo = std::min(lo, r.front());
      hi = std::max(hi, r.back());
    }
  }
  const auto count_le = [&](word v) {
    std::size_t c = 0;
    for (const auto& r : runs) {
      c += static_cast<std::size_t>(
          std::upper_bound(r.begin(), r.end(), v) - r.begin());
    }
    return c;
  };
  while (lo < hi) {
    ++steps;
    const word mid = lo + (hi - lo) / 2;
    if (count_le(mid) >= diag) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const word v = lo;

  // Elements strictly below v always belong to the prefix; ties at v are
  // assigned in run order (stability).
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    split[k] = static_cast<std::size_t>(
        std::lower_bound(runs[k].begin(), runs[k].end(), v) -
        runs[k].begin());
    assigned += split[k];
  }
  WCM_ENSURES(assigned <= diag, "bisection overshot the diagonal");
  std::size_t extra = diag - assigned;
  for (std::size_t k = 0; k < runs.size() && extra > 0; ++k) {
    const std::size_t ties = static_cast<std::size_t>(
        std::upper_bound(runs[k].begin(), runs[k].end(), v) -
        runs[k].begin()) - split[k];
    const std::size_t take = std::min(extra, ties);
    split[k] += take;
    extra -= take;
  }
  WCM_ENSURES(extra == 0, "tie distribution must reach the diagonal");
  return split;
}

/// One thread's K segments in shared memory.
struct ThreadKCtx {
  std::vector<std::pair<std::size_t, std::size_t>> segs;  // [begin, end)
  std::size_t out_begin = 0;

  [[nodiscard]] std::size_t elements() const noexcept {
    std::size_t n = 0;
    for (const auto& [b, e] : segs) {
      n += e - b;
    }
    return n;
  }
};

/// Account each thread's in-block quantile search: one binary search per
/// run per thread (log2(|seg|) warp-synchronous probe loads), the dominant
/// probe traffic of the K-way partition in shared memory.
void account_kway_searches(gpusim::SharedMemory& shm,
                           std::span<const ThreadKCtx> ctxs, u32 w,
                           gpusim::KernelStats& stats) {
  const std::size_t runs = ctxs.empty() ? 0 : ctxs[0].segs.size();
  std::vector<gpusim::LaneRead> probes;
  const auto before = shm.stats();
  for (std::size_t warp_start = 0; warp_start < ctxs.size();
       warp_start += w) {
    const std::size_t warp_end =
        std::min<std::size_t>(warp_start + w, ctxs.size());
    for (std::size_t k = 0; k < runs; ++k) {
      // Per-lane simulated bisection over its k-th segment.
      struct Range {
        std::size_t lo, hi;
      };
      std::vector<Range> r;
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        r.push_back({ctxs[i].segs[k].first, ctxs[i].segs[k].second});
      }
      for (;;) {
        probes.clear();
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (r[i].lo < r[i].hi) {
            probes.push_back({static_cast<u32>(i),
                              r[i].lo + (r[i].hi - r[i].lo) / 2});
          }
        }
        if (probes.empty()) {
          break;
        }
        shm.warp_read(probes);
        for (auto& range : r) {
          if (range.lo < range.hi) {
            const std::size_t mid = range.lo + (range.hi - range.lo) / 2;
            // The probe halves the range; which half is data-dependent but
            // both have the same length profile — walk deterministically.
            range.lo = mid + 1;
          }
        }
      }
    }
  }
  stats.shared_search += shm.stats() - before;
}

/// Lock-step K-way merge: at each of E iterations every thread consumes the
/// minimum head among its segments (lowest segment index wins ties) — one
/// accounted shared read per thread per iteration, exactly like the
/// pairwise engine.  A selection among K heads costs ceil(log2 K) extra
/// compare steps, charged to warp_merge_steps.
void simulate_kway_merge(Launch& launch, std::span<ThreadKCtx> ctxs, u32 E,
                         gpusim::KernelStats& stats) {
  gpusim::SharedMemory& shm = launch.shm();
  std::vector<gpusim::LaneRead>& reads = launch.reads();
  std::vector<gpusim::LaneWrite>& writes = launch.writes();
  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();
  std::vector<std::vector<std::size_t>> cursor(t);
  for (std::size_t i = 0; i < t; ++i) {
    WCM_EXPECTS(ctxs[i].elements() == E, "thread must merge exactly E keys");
    for (const auto& [b, e] : ctxs[i].segs) {
      (void)e;
      cursor[i].push_back(b);
    }
  }
  std::vector<word> regs(t * E);
  const u32 sel_depth = ctxs.empty() || ctxs[0].segs.size() < 2
                            ? 1
                            : floor_log2(2 * ctxs[0].segs.size() - 1);

  const auto before = shm.stats();
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (u32 s = 0; s < E; ++s) {
      reads.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        std::size_t best = static_cast<std::size_t>(-1);
        word best_val = 0;
        for (std::size_t k = 0; k < ctxs[i].segs.size(); ++k) {
          if (cursor[i][k] < ctxs[i].segs[k].second) {
            const word v = shm.peek(cursor[i][k]);
            if (best == static_cast<std::size_t>(-1) || v < best_val) {
              best = k;
              best_val = v;
            }
          }
        }
        WCM_EXPECTS(best != static_cast<std::size_t>(-1),
                    "thread ran out of elements before step E");
        const std::size_t addr = cursor[i][best]++;
        regs[(i) * E + s] = best_val;
        reads.push_back({static_cast<u32>(i - warp_start), addr});
      }
      shm.warp_read(reads);
    }
    stats.warp_merge_steps += static_cast<std::size_t>(E) * sel_depth;
  }
  stats.shared_merge_reads += shm.stats() - before;

  // Barrier, thread-contiguous write-back, barrier before unstaging reads.
  shm.barrier();
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (u32 s = 0; s < E; ++s) {
      writes.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        writes.push_back({static_cast<u32>(i - warp_start),
                          ctxs[i].out_begin + s, regs[i * E + s]});
      }
      shm.warp_write(writes);
    }
  }
  shm.barrier();
}

/// Merge one group of K runs into `out`, one block per bE output tile.
void simulate_group_merge(Launch& launch,
                          const std::vector<std::span<const word>>& runs,
                          std::span<word> out, gpusim::KernelStats& stats) {
  gpusim::SharedMemory& shm = launch.shm();
  const std::size_t tile = launch.tile();
  const u32 E = launch.cfg().E;
  const u32 b = launch.cfg().b;
  const u32 w = launch.cfg().w;
  std::size_t total = 0;
  for (const auto& r : runs) {
    total += r.size();
  }
  WCM_EXPECTS(total % tile == 0, "group size must be a multiple of bE");

  // Partitioning stage: K-way co-ranks at every tile boundary.
  std::vector<std::vector<std::size_t>> boundary;
  for (std::size_t diag = 0; diag <= total; diag += tile) {
    std::size_t steps = 0;
    boundary.push_back(kway_corank(runs, diag, steps));
    stats.binary_search_steps += steps;
    stats.global_requests += steps * runs.size();
    stats.global_transactions += steps * runs.size();
  }

  std::vector<ThreadKCtx> ctxs(b);
  for (std::size_t tidx = 0; tidx + 1 < boundary.size(); ++tidx) {
    launch.block(stats, [&] {
      const auto& lo = boundary[tidx];
      const auto& hi = boundary[tidx + 1];

      // Block boundary between consecutive simulated tiles.
      shm.barrier();

      // Stage the tile: segment k at the shared offset of the cumulative
      // segment sizes; remember the staged copy for the thread searches.
      std::vector<word> staged;
      std::vector<std::pair<std::size_t, std::size_t>> seg_addr(runs.size());
      staged.reserve(tile);
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const std::size_t begin = staged.size();
        staged.insert(staged.end(),
                      runs[k].begin() + static_cast<std::ptrdiff_t>(lo[k]),
                      runs[k].begin() + static_cast<std::ptrdiff_t>(hi[k]));
        seg_addr[k] = {begin, staged.size()};
        stats.global_transactions += (hi[k] - lo[k] + w - 1) / w + 1;
      }
      WCM_ENSURES(staged.size() == tile, "tile staging mismatch");
      shm.fill(staged);
      stats.global_requests += tile;
      launch.stage_tile(staged);
      // __syncthreads: the quantile searches probe other threads' staging.
      shm.barrier();

      // Per-thread quantiles within the staged tile.
      std::vector<std::span<const word>> segs(runs.size());
      for (std::size_t k = 0; k < runs.size(); ++k) {
        segs[k] = std::span<const word>(staged).subspan(
            seg_addr[k].first, seg_addr[k].second - seg_addr[k].first);
      }
      std::vector<std::vector<std::size_t>> tsplit(b + 1);
      for (u32 t = 0; t <= b; ++t) {
        std::size_t steps = 0;
        tsplit[t] = kway_corank(segs, static_cast<std::size_t>(t) * E, steps);
      }
      for (u32 t = 0; t < b; ++t) {
        ctxs[t].segs.assign(runs.size(), {});
        for (std::size_t k = 0; k < runs.size(); ++k) {
          ctxs[t].segs[k] = {seg_addr[k].first + tsplit[t][k],
                             seg_addr[k].first + tsplit[t + 1][k]};
        }
        ctxs[t].out_begin = static_cast<std::size_t>(t) * E;
      }
      account_kway_searches(shm, ctxs, w, stats);

      simulate_kway_merge(launch, ctxs, E, stats);

      // Coalesced store (conflict-free unstaging reads, as in the pairwise
      // engine).
      launch.unstage_tile(out.subspan(tidx * tile, tile));
      stats.global_transactions += tile / w;
      stats.global_requests += tile;
    });
  }
}

}  // namespace

SortReport multiway_merge_sort(std::span<const word> input,
                               const SortConfig& cfg,
                               const gpusim::Device& dev, u32 ways,
                               std::vector<word>* output) {
  cfg.validate();
  WCM_CHECK_CONFIG(ways >= 2, "need at least 2 ways");
  Launch launch({.engine = "multiway", .ping_pong = true}, input, cfg, dev);
  const std::size_t n = launch.n();

  WCM_SPAN("multiway.sort");

  // Base case: identical to the pairwise sort.
  launch.block_sort_round("multiway.block_sort");

  std::size_t run = launch.tile();
  u32 round_idx = 0;
  while (run < n) {
    ++round_idx;
    WCM_SPAN("multiway.merge_round");
    WCM_FAILPOINT("sort.multiway.round", simulation_error,
                  "injected mid-round invariant break");
    const std::span<const word> data(launch.keys());
    const std::span<word> buffer(launch.buffer());
    gpusim::KernelStats stats;
    const std::size_t group_out = run * ways;
    for (std::size_t base = 0; base < n; base += group_out) {
      std::vector<std::span<const word>> runs;
      std::size_t group_size = 0;
      for (u32 k = 0; k < ways && base + group_size < n; ++k) {
        const std::size_t len =
            std::min(run, n - base - group_size);
        runs.push_back(data.subspan(base + group_size, len));
        group_size += len;
      }
      if (runs.size() == 1) {
        std::copy(runs[0].begin(), runs[0].end(),
                  buffer.begin() + static_cast<std::ptrdiff_t>(base));
        stats.global_transactions += 2 * ceil_div(runs[0].size(), cfg.w);
        stats.global_requests += 2 * runs[0].size();
        continue;
      }
      simulate_group_merge(launch, runs, buffer.subspan(base, group_size),
                           stats);
    }
    launch.swap();

    launch.close_round("multiway round " + std::to_string(round_idx), stats);
    run = group_out;
  }

  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_multiway(u32 w, u32 b, u32 pad, u32 ways) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(ways >= 2, "multiway merge needs at least two runs");
  // The simulated engine block-sorts its tiles first, so the description
  // composes the blocksort groups the same way describe_pairwise does.
  ir::KernelDesc d = describe_blocksort(w, b, pad);
  d.kernel = "multiway";
  const int e = d.find_symbol("E");
  const int s = d.find_symbol("s");
  const int wse = d.find_symbol("wsE");
  const int ws = d.add_symbol("ws", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(ws)].max_form =
      ir::LinForm::constant(last_warp);
  d.symbols[static_cast<std::size_t>(ws)].step_form =
      ir::LinForm::constant(static_cast<i64>(w));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);
  const bool partial_warp = b % w != 0;

  d.groups.push_back(ir::barrier_group("round entry"));
  ir::StepGroup stage = ir::affine_group(
      "stage store", ir::GroupKind::write, w,
      ir::LinForm::sym(ws) + ir::LinForm::sym(s, static_cast<i64>(b)),
      ir::LinForm::constant(1), "E steps x b/w warps x rounds");
  stage.masked = partial_warp;
  d.groups.push_back(std::move(stage));
  d.groups.push_back(ir::barrier_group("after staging"));
  // Each thread bisects for its quantile in every one of the K staged
  // runs in turn; one warp step probes within a single run's segment,
  // conservatively widened to the whole tile.
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "quantile probes", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(b)), ir::LinForm::constant(1),
          "<= ceil(log2(bE/K+1)) bisection iterations x K runs"),
      ir::LinForm::constant(0), tile_hi));
  // Lock-step K-way merge: a warp's E outputs per thread come from K
  // cursor ranges, one per source run.
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "k-way merge reads", ir::GroupKind::read, w,
          ir::LinForm::sym(e, static_cast<i64>(w)),
          ir::LinForm::constant(static_cast<i64>(ways)),
          "E lock-step iterations, K-head selection"),
      ir::LinForm::constant(0), tile_hi));
  d.groups.push_back(ir::barrier_group("pre/post write-back barrier"));
  d.groups.back().repeat = "2 per round";
  ir::StepGroup wb = ir::affine_group(
      "merge write-back", ir::GroupKind::write, w,
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
  d.groups.push_back(ir::barrier_group("round exit"));
  return d;
}

}  // namespace wcm::sort
