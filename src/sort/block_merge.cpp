#include "sort/block_merge.hpp"

#include <algorithm>

#include "sort/describe.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

std::vector<mergepath::CoRank> simulate_block_search(
    gpusim::SharedMemory& shm, std::span<const ThreadSearchCtx> ctxs,
    gpusim::KernelStats& stats) {
  WCM_SPAN("block_merge.search");
  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();
  std::vector<mergepath::CoRank> result(t);

  // Per-thread search state, advanced one iteration at a time so probes can
  // be replayed warp-synchronously across lanes.
  struct SearchState {
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool done = false;
  };
  std::vector<SearchState> st(t);
  for (std::size_t i = 0; i < t; ++i) {
    const ThreadSearchCtx& c = ctxs[i];
    WCM_EXPECTS(c.a_begin <= c.a_end && c.a_end <= shm.words(),
                "A range invalid");
    WCM_EXPECTS(c.b_begin <= c.b_end && c.b_end <= shm.words(),
                "B range invalid");
    const std::size_t na = c.a_end - c.a_begin;
    const std::size_t nb = c.b_end - c.b_begin;
    WCM_EXPECTS(c.diag <= na + nb, "diagonal beyond both lists");
    st[i].lo = c.diag > nb ? c.diag - nb : 0;
    st[i].hi = std::min(c.diag, na);
    st[i].done = st[i].lo >= st[i].hi;
    if (st[i].done) {
      result[i] = {st[i].lo, c.diag - st[i].lo};
    }
  }

  const auto shared_before = shm.stats();

  std::vector<gpusim::LaneRead> probes_a;
  std::vector<gpusim::LaneRead> probes_b;
  std::vector<std::pair<std::size_t, std::size_t>> mids;  // (thread, mid)
  probes_a.reserve(w);
  probes_b.reserve(w);
  mids.reserve(w);

  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    for (;;) {
      probes_a.clear();
      probes_b.clear();
      mids.clear();
      // Decide this iteration's probe addresses for every active lane.
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        if (st[i].done) {
          continue;
        }
        const std::size_t mid = st[i].lo + (st[i].hi - st[i].lo) / 2;
        const std::size_t j = ctxs[i].diag - mid;
        probes_a.push_back(
            {static_cast<u32>(i - warp_start), ctxs[i].a_begin + mid});
        probes_b.push_back(
            {static_cast<u32>(i - warp_start), ctxs[i].b_begin + j - 1});
        mids.emplace_back(i, mid);
      }
      if (probes_a.empty()) {
        break;
      }
      // Two warp-wide loads per iteration: the A probe then the B probe.
      shm.warp_read(probes_a);
      shm.warp_read(probes_b);
      for (const auto& [i, mid] : mids) {
        const std::size_t j = ctxs[i].diag - mid;
        const word av = shm.peek(ctxs[i].a_begin + mid);
        const word bv = shm.peek(ctxs[i].b_begin + j - 1);
        if (av <= bv) {  // A-priority, matches mergepath::merge_path
          st[i].lo = mid + 1;
        } else {
          st[i].hi = mid;
        }
        if (st[i].lo >= st[i].hi) {
          st[i].done = true;
          result[i] = {st[i].lo, ctxs[i].diag - st[i].lo};
        }
      }
    }
  }

  stats.shared_search += shm.stats() - shared_before;
  return result;
}

std::vector<word> simulate_block_merge(gpusim::SharedMemory& shm,
                                       std::span<const ThreadMergeCtx> ctxs,
                                       u32 E, bool write_back,
                                       gpusim::KernelStats& stats,
                                       bool realistic_refills) {
  WCM_SPAN("block_merge.merge");
  for (const ThreadMergeCtx& c : ctxs) {
    WCM_EXPECTS(c.elements() == E, "every thread must merge exactly E keys");
    WCM_EXPECTS(c.a_end <= shm.words() && c.b_end <= shm.words(),
                "segment outside shared memory");
  }

  const u32 w = shm.warp_size();
  const std::size_t t = ctxs.size();

  // Per-thread cursors and register file.
  std::vector<std::size_t> ai(t), bi(t);
  for (std::size_t i = 0; i < t; ++i) {
    ai[i] = ctxs[i].a_begin;
    bi[i] = ctxs[i].b_begin;
  }
  std::vector<word> regs(t * E);

  const auto before_merge = shm.stats();

  std::vector<gpusim::LaneRead> reads;
  reads.reserve(w);
  for (std::size_t warp_start = 0; warp_start < t; warp_start += w) {
    const std::size_t warp_end = std::min<std::size_t>(warp_start + w, t);
    if (realistic_refills) {
      // Initial head loads: every thread fetches its A head, then its B
      // head, into registers (inactive lanes for empty segments).
      for (const bool side_a : {true, false}) {
        reads.clear();
        for (std::size_t i = warp_start; i < warp_end; ++i) {
          const std::size_t cur = side_a ? ai[i] : bi[i];
          const std::size_t end = side_a ? ctxs[i].a_end : ctxs[i].b_end;
          if (cur < end) {
            reads.push_back({static_cast<u32>(i - warp_start), cur});
          }
        }
        if (!reads.empty()) {
          shm.warp_read(reads);
        }
      }
    }
    for (u32 s = 0; s < E; ++s) {
      reads.clear();
      for (std::size_t i = warp_start; i < warp_end; ++i) {
        // Decide which side this thread consumes at iteration s.
        const bool a_avail = ai[i] < ctxs[i].a_end;
        const bool b_avail = bi[i] < ctxs[i].b_end;
        bool take_a;
        if (a_avail && b_avail) {
          take_a = shm.peek(ai[i]) <= shm.peek(bi[i]);  // A-priority
        } else {
          WCM_EXPECTS(a_avail || b_avail,
                      "thread ran out of elements before step E");
          take_a = a_avail;
        }
        const std::size_t addr = take_a ? ai[i]++ : bi[i]++;
        regs[i * E + s] = shm.peek(addr);
        if (realistic_refills) {
          // The consumed value was already in registers; the iteration's
          // shared access is the *refill* of the consumed side's next
          // element (none when that segment is exhausted).
          const std::size_t next = take_a ? ai[i] : bi[i];
          const std::size_t end = take_a ? ctxs[i].a_end : ctxs[i].b_end;
          if (next < end) {
            reads.push_back({static_cast<u32>(i - warp_start), next});
          }
        } else {
          reads.push_back({static_cast<u32>(i - warp_start), addr});
        }
      }
      if (!reads.empty()) {
        shm.warp_read(reads);
      }
    }
    stats.warp_merge_steps += E;
  }
  stats.shared_merge_reads += shm.stats() - before_merge;

  // Barrier, then thread-contiguous write-back of the register file, then
  // another barrier before anyone reads the merged output.  When thread i
  // writes [iE, iE + E) (every block-level merge does) the stores' addresses
  // depend only on (E, threads): they are priced once, and a repeat only
  // copies the register file into [0, threads * E).
  if (write_back) {
    shm.barrier();
    const auto write_steps = [&] {
      std::vector<gpusim::LaneWrite> writes;
      writes.reserve(w);
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
    };
    bool contiguous = true;
    for (std::size_t i = 0; i < t && contiguous; ++i) {
      contiguous = ctxs[i].out_begin == i * E;
    }
    if (contiguous) {
      shm.oblivious({"merged write-back", E, t}, write_steps,
                    [&] { shm.fill(regs); });
    } else {
      write_steps();
    }
    shm.barrier();
  }

  return regs;
}

gpusim::ir::KernelDesc describe_block_merge(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(w > 0 && b >= w && is_pow2(b),
              "block size must be a power of two no smaller than the warp");
  ir::KernelDesc d;
  d.kernel = "block-merge";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  const int s = d.add_symbol("s", ir::SymRole::parameter, 0,
                             static_cast<i64>(w) - 2, 1, 0, e);
  const int wse = d.add_symbol("wsE", ir::SymRole::warp_shift, 0, 0, w, 0);
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(wse)].max_form =
      ir::LinForm::sym(e, last_warp);
  d.symbols[static_cast<std::size_t>(wse)].step_form =
      ir::LinForm::sym(e, static_cast<i64>(w));
  d.words = ir::LinForm::sym(e, static_cast<i64>(b));
  const ir::LinForm tile_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1);

  // Round r merges pairs of runs of half = 2^(r-1)*E elements with
  // tpp = 2^r threads per pair; a warp spans whole pairs while tpp <= w
  // (its merge sources form ONE contiguous w*E range) and part of one
  // pair afterwards (two contiguous ranges: an A part and a B part).
  // Non-power-of-two warps can straddle pair boundaries on both sides;
  // floor((w-1)/tpp)+2 pairs bound the warp's reach in that regime.
  const u32 rounds = log2_exact(b);
  for (u32 r = 1; r <= rounds; ++r) {
    const u64 tpp = u64{1} << r;
    const bool aligned = tpp <= w ? w % tpp == 0 : tpp % w == 0;
    const u64 npairs = !aligned ? (w - 1) / tpp + 2
                                : (tpp <= w ? w / tpp : 1);
    const std::string tag = " (round " + std::to_string(r) + ")";
    d.groups.push_back(ir::with_region(
        ir::window_group(
            "search probes" + tag, ir::GroupKind::read, w,
            ir::LinForm::sym(e, static_cast<i64>(npairs * (tpp / 2))),
            ir::LinForm::constant(static_cast<i64>(npairs)),
            "<= ceil(log2(half+1)) bisection iterations, A then B probes"),
        ir::LinForm::constant(0), tile_hi));
    d.groups.push_back(ir::with_region(
        ir::window_group(
            "merge reads" + tag, ir::GroupKind::read, w,
            aligned ? ir::LinForm::sym(e, static_cast<i64>(w))
                    : ir::LinForm::sym(e, static_cast<i64>(npairs * tpp)),
            ir::LinForm::constant(aligned ? (tpp <= w ? 1 : 2) : 1),
            "E lock-step iterations x b/w warps", /*atomic=*/false,
            /*theorem_site=*/true),
        ir::LinForm::constant(0), tile_hi));
  }
  d.groups.push_back(ir::barrier_group("pre/post write-back barrier"));
  d.groups.back().repeat = "2 per round";
  ir::StepGroup wb = ir::affine_group(
      "merged write-back", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps x log2(b) rounds");
  wb.masked = b % w != 0;
  d.groups.push_back(std::move(wb));
  return d;
}

}  // namespace wcm::sort
