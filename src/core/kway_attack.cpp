#include "core/kway_attack.hpp"

#include <algorithm>
#include <numeric>

#include "core/numbers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace wcm::core {

std::vector<std::size_t> KWarpAssignment::totals() const {
  std::vector<std::size_t> t(ways, 0);
  for (const auto& th : threads) {
    for (u32 k = 0; k < ways; ++k) {
      t[k] += th.counts[k];
    }
  }
  return t;
}

void KWarpAssignment::validate() const {
  WCM_EXPECTS(is_pow2(w), "warp size must be a power of two");
  WCM_EXPECTS(ways >= 2, "need at least two runs");
  WCM_EXPECTS(threads.size() == w, "need exactly w thread assignments");
  for (const auto& th : threads) {
    WCM_EXPECTS(th.counts.size() == ways, "counts per run mismatch");
    u32 sum = 0;
    for (const u32 c : th.counts) {
      sum += c;
    }
    WCM_EXPECTS(sum == E, "every thread must merge E keys");
    // Order must name each touched run exactly once.
    std::vector<bool> seen(ways, false);
    for (const u32 k : th.order) {
      WCM_EXPECTS(k < ways && !seen[k], "order must be a run subset");
      seen[k] = true;
      WCM_EXPECTS(th.counts[k] > 0, "ordered run must contribute");
    }
    u32 ordered = 0;
    for (const u32 k : th.order) {
      ordered += th.counts[k];
    }
    WCM_EXPECTS(ordered == E, "order must cover every contributed run");
  }
  const auto t = totals();
  for (const std::size_t tk : t) {
    WCM_EXPECTS(tk % w == 0, "per-run totals must be multiples of w");
  }
}

WarpEval evaluate_kway_warp(const KWarpAssignment& wa, u32 s) {
  wa.validate();
  WCM_EXPECTS(s < wa.w, "alignment window start out of range");

  const auto totals = wa.totals();
  std::vector<std::size_t> base(wa.ways, 0);
  for (u32 k = 1; k < wa.ways; ++k) {
    base[k] = base[k - 1] + totals[k - 1];
  }

  // Per-thread read schedule.
  std::vector<std::size_t> cursor(base.begin(), base.end());
  std::vector<std::vector<std::size_t>> sched(wa.w);
  for (u32 t = 0; t < wa.w; ++t) {
    const auto& th = wa.threads[t];
    auto& addrs = sched[t];
    addrs.reserve(wa.E);
    for (const u32 k : th.order) {
      for (u32 i = 0; i < th.counts[k]; ++i) {
        addrs.push_back(cursor[k] + i);
      }
      cursor[k] += th.counts[k];
    }
  }

  return evaluate_schedule(sched, wa.w, wa.E, s);
}

KWarpAssignment build_kway_warp(u32 w, u32 E, u32 ways) {
  WCM_EXPECTS(classify_e(w, E) == ERegime::small,
              "K-way attack needs the small-E regime");
  WCM_EXPECTS(ways >= 2 && ways <= E, "need 2 <= ways <= E");

  // Column quotas: runs 0..(E mod K - 1) get ceil(E/K) columns, the rest
  // floor(E/K); per-run totals are quota * w.
  std::vector<std::size_t> rem(ways);
  for (u32 k = 0; k < ways; ++k) {
    rem[k] = static_cast<std::size_t>(E / ways + (k < E % ways ? 1 : 0)) * w;
  }
  std::vector<std::size_t> pos(ways, 0);

  KWarpAssignment wa;
  wa.w = w;
  wa.E = E;
  wa.ways = ways;
  wa.threads.resize(w);

  for (u32 t = 0; t < w; ++t) {
    KThreadAssign& th = wa.threads[t];
    th.counts.assign(ways, 0);

    // Aligned scan: a run whose cursor sits on a column boundary with a
    // full column's worth remaining (prefer the fullest such run).
    u32 best = ways;
    for (u32 k = 0; k < ways; ++k) {
      if (pos[k] % w == 0 && rem[k] >= E &&
          (best == ways || rem[k] > rem[best])) {
        best = k;
      }
    }
    if (best != ways) {
      th.counts[best] = E;
      th.order = {best};
      pos[best] += E;
      rem[best] -= E;
      continue;
    }

    // Filler: repeatedly close the smallest positive gap (multi-run
    // threads are fine — the generator controls the values, so a thread
    // may scan any number of runs in sequence).  Gap ties break toward the
    // run with the most remaining elements: without this, the low-index
    // runs monopolize the fillers and the largest run is stranded alone at
    // the end, where consecutive E-scans of a single run cannot all start
    // on column boundaries.
    u32 budget = E;
    while (budget > 0) {
      u32 pick = ways;
      std::size_t pick_gap = 0;
      for (u32 k = 0; k < ways; ++k) {
        if (rem[k] == 0) {
          continue;
        }
        const std::size_t g =
            (w - pos[k] % w) % w == 0 ? w : (w - pos[k] % w) % w;
        if (pick == ways || g < pick_gap ||
            (g == pick_gap && rem[k] > rem[pick])) {
          pick = k;
          pick_gap = g;
        }
      }
      WCM_EXPECTS(pick != ways, "filler ran out of elements");
      const u32 take = static_cast<u32>(std::min<std::size_t>(
          {pick_gap, static_cast<std::size_t>(budget), rem[pick]}));
      th.counts[pick] += take;
      if (th.order.empty() || th.order.back() != pick) {
        th.order.push_back(pick);
      }
      pos[pick] += take;
      rem[pick] -= take;
      budget -= take;
    }
  }

  for (const std::size_t r : rem) {
    WCM_ENSURES(r == 0, "construction must consume wE keys");
  }
  wa.validate();
  const auto eval = evaluate_kway_warp(wa, 0);
  WCM_ENSURES(eval.aligned == static_cast<std::size_t>(E) * E,
              "K-way construction must align exactly E^2 elements");
  return wa;
}

std::vector<KWarpAssignment> build_kway_warp_group(u32 w, u32 E, u32 ways) {
  const KWarpAssignment base = build_kway_warp(w, E, ways);
  std::vector<KWarpAssignment> group;
  group.reserve(ways);
  for (u32 q = 0; q < ways; ++q) {
    KWarpAssignment rotated = base;
    for (auto& th : rotated.threads) {
      std::vector<u32> counts(ways);
      for (u32 k = 0; k < ways; ++k) {
        counts[(k + q) % ways] = th.counts[k];
      }
      th.counts = std::move(counts);
      for (u32& k : th.order) {
        k = (k + q) % ways;
      }
    }
    group.push_back(std::move(rotated));
  }
  return group;
}

namespace {

/// Per-rank origin labels of one block's bE output ranks: the warp group
/// tiled across the block's warps.
std::vector<u32> kway_block_origins(const sort::SortConfig& cfg,
                                    const std::vector<KWarpAssignment>& group) {
  const u32 warps = cfg.warps_per_block();
  WCM_EXPECTS(warps % group.size() == 0,
              "(b / w) must be a multiple of ways for balanced blocks");
  std::vector<u32> origins;
  origins.reserve(cfg.tile());
  for (u32 q = 0; q < warps; ++q) {
    const KWarpAssignment& wa = group[q % group.size()];
    for (u32 t = 0; t < cfg.w; ++t) {
      const auto& th = wa.threads[t];
      for (const u32 k : th.order) {
        origins.insert(origins.end(), th.counts[k], k);
      }
    }
  }
  WCM_ENSURES(origins.size() == cfg.tile(), "origin labels must cover bE");
  return origins;
}

struct KGenState {
  const sort::SortConfig* cfg = nullptr;
  u32 ways = 0;
  std::vector<u32> block_origins;
  std::vector<dmm::word>* out = nullptr;
  Xoshiro256 rng{0};
  bool shuffle_tiles = false;
};

void kplace(KGenState& g, std::vector<dmm::word> values, std::size_t base) {
  const std::size_t size = values.size();
  const std::size_t tile = g.cfg->tile();
  if (size == tile) {
    if (g.shuffle_tiles) {
      shuffle(values, g.rng);
    }
    std::copy(values.begin(), values.end(),
              g.out->begin() + static_cast<std::ptrdiff_t>(base));
    return;
  }
  // Split the sorted values into `ways` runs per the tiled block origins.
  std::vector<std::vector<dmm::word>> runs(g.ways);
  const std::size_t child = size / g.ways;
  for (auto& r : runs) {
    r.reserve(child);
  }
  for (std::size_t i = 0; i < size; ++i) {
    runs[g.block_origins[i % tile]].push_back(values[i]);
  }
  for (u32 k = 0; k < g.ways; ++k) {
    WCM_ENSURES(runs[k].size() == child, "origin split must be balanced");
    kplace(g, std::move(runs[k]), base + k * child);
  }
}

}  // namespace

std::vector<dmm::word> kway_worst_case_input(std::size_t n,
                                             const sort::SortConfig& cfg,
                                             u32 ways,
                                             u64 tile_shuffle_seed) {
  cfg.validate();
  const std::size_t tile = cfg.tile();
  WCM_EXPECTS(n > tile && n % tile == 0, "n must be bE * ways^j");
  std::size_t runs = n / tile;
  while (runs > 1) {
    WCM_EXPECTS(runs % ways == 0, "n must be bE * ways^j");
    runs /= ways;
  }

  KGenState g;
  g.cfg = &cfg;
  g.ways = ways;
  g.block_origins = kway_block_origins(cfg, build_kway_warp_group(cfg.w, cfg.E, ways));
  g.rng = Xoshiro256(tile_shuffle_seed);
  g.shuffle_tiles = tile_shuffle_seed != 0;

  std::vector<dmm::word> out(n);
  g.out = &out;
  std::vector<dmm::word> all(n);
  std::iota(all.begin(), all.end(), dmm::word{0});
  kplace(g, std::move(all), 0);
  return out;
}

}  // namespace wcm::core
