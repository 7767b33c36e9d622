#include "sort/blocksort.hpp"

#include <algorithm>
#include <vector>

#include "sort/block_merge.hpp"
#include "sort/describe.hpp"
#include "sort/registers.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

void simulate_block_sort(gpusim::SharedMemory& shm, std::span<word> tile,
                         const SortConfig& cfg, gpusim::KernelStats& stats) {
  cfg.validate();
  WCM_EXPECTS(tile.size() == cfg.tile(), "tile size mismatch");
  WCM_EXPECTS(shm.words() >= cfg.tile(), "shared memory too small");
  WCM_EXPECTS(shm.warp_size() == cfg.w, "warp size mismatch");
  WCM_SPAN("blocksort.tile");

  const u32 E = cfg.E;
  const u32 b = cfg.b;
  const u32 w = cfg.w;

  // Block entry: one SharedMemory hosts many simulated blocks in sequence,
  // so the kernel launch boundary is a barrier in the recorded trace.
  shm.barrier();

  // Coalesced global load of the tile into shared memory.
  shm.fill(tile);
  stats.global_transactions += ceil_div(tile.size(), w);
  stats.global_requests += tile.size();

  // Each thread loads its E consecutive keys from shared into registers
  // (thread t reads addresses tE .. tE+E-1, lock-step across the warp),
  // sorts them with the odd-even network, and stores them back.  The
  // loads and stores touch the same addresses whatever the keys, so they
  // are priced once per (E, b) and move nothing: the register sort below
  // pokes the sorted keys.
  std::vector<gpusim::LaneRead> reads;
  std::vector<gpusim::LaneWrite> writes;
  std::vector<word> regs(E);
  shm.oblivious(
      {"register-sort load", E, b},
      [&] {
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          for (u32 s = 0; s < E; ++s) {
            reads.clear();
            for (u32 lane = 0; lane < w && warp_start + lane < b; ++lane) {
              reads.push_back(
                  {lane, static_cast<std::size_t>(warp_start + lane) * E + s});
            }
            shm.warp_read(reads);
          }
        }
      },
      [] {});
  stats.register_compare_steps +=
      ceil_div(b, w) * odd_even_comparator_count(E);
  // Register sort is per-thread; perform it on the backing data.
  for (u32 t = 0; t < b; ++t) {
    const std::size_t base = static_cast<std::size_t>(t) * E;
    regs.assign(tile.begin() + static_cast<std::ptrdiff_t>(base),
                tile.begin() + static_cast<std::ptrdiff_t>(base + E));
    odd_even_sort(regs);
    for (u32 s = 0; s < E; ++s) {
      shm.poke(base + s, regs[s]);
    }
  }
  shm.oblivious(
      {"register-sort store", E, b},
      [&] {
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          for (u32 s = 0; s < E; ++s) {
            writes.clear();
            for (u32 lane = 0; lane < w && warp_start + lane < b; ++lane) {
              const std::size_t addr =
                  static_cast<std::size_t>(warp_start + lane) * E + s;
              writes.push_back({lane, addr, shm.peek(addr)});
            }
            shm.warp_write(writes);
          }
        }
      },
      [] {});
  // __syncthreads: the merge rounds read other threads' sorted runs.
  shm.barrier();

  // log2(b) intra-block pairwise merge rounds.  In round i, b / 2^i pairs of
  // runs of size 2^(i-1) E are merged by 2^i threads each; every thread
  // handles E output elements.  Searches and merges run for the whole block
  // at once so warps spanning several pairs share warp steps, as on real
  // hardware.
  const u32 rounds = log2_exact(b);
  std::vector<ThreadSearchCtx> search_ctxs(b);
  std::vector<ThreadMergeCtx> ctxs(b);
  for (u32 round = 1; round <= rounds; ++round) {
    const std::size_t threads_per_pair = std::size_t{1} << round;
    const std::size_t half = (threads_per_pair / 2) * E;  // run size
    const std::size_t pair_out = threads_per_pair * E;

    for (std::size_t pair = 0; pair < cfg.tile() / pair_out; ++pair) {
      const std::size_t base = pair * pair_out;
      for (std::size_t t = 0; t < threads_per_pair; ++t) {
        ThreadSearchCtx& c = search_ctxs[pair * threads_per_pair + t];
        c.a_begin = base;
        c.a_end = base + half;
        c.b_begin = base + half;
        c.b_end = base + pair_out;
        c.diag = t * E;
      }
    }
    const auto coranks = simulate_block_search(shm, search_ctxs, stats);

    for (std::size_t pair = 0; pair < cfg.tile() / pair_out; ++pair) {
      const std::size_t base = pair * pair_out;
      for (std::size_t t = 0; t < threads_per_pair; ++t) {
        const std::size_t tid = pair * threads_per_pair + t;
        const bool last = t + 1 == threads_per_pair;
        ThreadMergeCtx& c = ctxs[tid];
        c.a_begin = base + coranks[tid].i;
        c.b_begin = base + half + coranks[tid].j;
        // Each thread's segment ends at the next thread's co-rank.
        c.a_end = base + (last ? half : coranks[tid + 1].i);
        c.b_end = base + half + (last ? half : coranks[tid + 1].j);
        c.out_begin = base + t * E;
      }
    }
    simulate_block_merge(shm, ctxs, E, /*write_back=*/true, stats,
                         cfg.realistic_refills);
  }

  // Coalesced global store of the sorted tile.
  const auto sorted = shm.dump(0, cfg.tile());
  std::copy(sorted.begin(), sorted.end(), tile.begin());
  stats.global_transactions += ceil_div(tile.size(), w);
  stats.global_requests += tile.size();
}

gpusim::ir::KernelDesc describe_blocksort(u32 w, u32 b, u32 pad) {
  namespace ir = gpusim::ir;
  // The merge-round describer owns the shape contract-checks and declares
  // the shared E/s/wsE symbols; append() unifies them by name.
  ir::KernelDesc merge = describe_block_merge(w, b, pad);
  ir::KernelDesc d;
  d.kernel = "blocksort";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  const int s = d.add_symbol("s", ir::SymRole::parameter, 0,
                             static_cast<i64>(w) - 2, 1, 0, e);
  const int wse = d.add_symbol("wsE", ir::SymRole::warp_shift, 0, 0, w, 0);
  // True extent of the warp shift: warp_start*E for warp_start in
  // {0, w, ..., w*floor((b-1)/w)} (the last value drops below b-w only
  // when w does not divide b, where the final warp is partial).
  const i64 last_warp = static_cast<i64>(w) * ((static_cast<i64>(b) - 1) /
                                               static_cast<i64>(w));
  d.symbols[static_cast<std::size_t>(wse)].max_form =
      ir::LinForm::sym(e, last_warp);
  d.symbols[static_cast<std::size_t>(wse)].step_form =
      ir::LinForm::sym(e, static_cast<i64>(w));
  d.words = ir::LinForm::sym(e, static_cast<i64>(b));

  d.groups.push_back(ir::barrier_group("block entry"));
  d.groups.push_back(ir::with_region(
      ir::fill_group("tile load", "1 per tile"), ir::LinForm::constant(0),
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1)));
  // Thread t reads/writes its E consecutive keys: lane address
  // wsE + s + E*lane — the Dotsenko stride-E pattern the congruence
  // domain proves conflict-free for every odd E (unpadded).
  ir::StepGroup reg_load = ir::affine_group(
      "register-sort load", ir::GroupKind::read, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps");
  reg_load.masked = b % w != 0;
  ir::StepGroup reg_store = ir::affine_group(
      "register-sort store", ir::GroupKind::write, w,
      ir::LinForm::sym(wse) + ir::LinForm::sym(s), ir::LinForm::sym(e),
      "E steps x b/w warps");
  reg_store.masked = b % w != 0;
  d.groups.push_back(std::move(reg_load));
  d.groups.push_back(std::move(reg_store));
  d.groups.push_back(ir::barrier_group("before merge rounds"));
  d.append(merge);
  return d;
}

}  // namespace wcm::sort
