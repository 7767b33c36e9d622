#include "sort/radix.hpp"

#include <algorithm>
#include <numeric>

#include "sort/describe.hpp"
#include "sort/launch.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

u32 radix_pass_count(u32 key_bits, u32 digit_bits) {
  WCM_EXPECTS(digit_bits >= 1 && digit_bits <= 16, "digit width 1..16");
  return static_cast<u32>(
      ceil_div(key_bits, digit_bits));
}

std::vector<word> radix_adversarial_input(std::size_t n) {
  // All keys equal, with the same magnitude a permutation of 0..n-1 would
  // have, so the pass count matches the uniform baseline and every
  // histogram update of every pass collides w ways.
  return std::vector<word>(n, n > 0 ? static_cast<word>(n - 1) : word{0});
}

SortReport radix_sort(std::span<const word> input, const SortConfig& cfg,
                      const gpusim::Device& dev, u32 digit_bits,
                      std::vector<word>* output) {
  cfg.validate();
  WCM_EXPECTS(digit_bits >= 1 && digit_bits <= 16, "digit width 1..16");
  const std::size_t bins = std::size_t{1} << digit_bits;
  // Shared layout per block: the tile's keys plus the histogram bins.
  Launch launch({.engine = "radix", .extra_words = bins, .ping_pong = true},
                input, cfg, dev);

  word max_key = 0;
  for (const word k : input) {
    WCM_EXPECTS(k >= 0, "radix sort requires non-negative keys");
    max_key = std::max(max_key, k);
  }
  u32 key_bits = 1;
  while ((word{1} << key_bits) <= max_key && key_bits < 62) {
    ++key_bits;
  }
  const u32 passes = radix_pass_count(key_bits, digit_bits);

  const std::size_t tile = launch.tile();
  const std::size_t n = launch.n();
  const u32 w = cfg.w;
  gpusim::SharedMemory& shm = launch.shm();
  std::vector<gpusim::LaneRead>& reads = launch.reads();
  std::vector<gpusim::LaneWrite>& writes = launch.writes();
  const std::vector<word>& data = launch.keys();
  std::vector<word>& buffer = launch.buffer();

  WCM_SPAN("radix.sort");

  for (u32 pass = 0; pass < passes; ++pass) {
    WCM_SPAN("radix.pass");
    gpusim::KernelStats stats;
    const word shift = static_cast<word>(pass) * digit_bits;
    const word mask = static_cast<word>(bins - 1);
    const auto digit_of = [&](word key) {
      return static_cast<std::size_t>((key >> shift) & mask);
    };

    // Per-tile histograms (simulated with full conflict accounting) plus
    // the functional global counting.
    std::vector<std::size_t> global_count(bins, 0);
    for (std::size_t base = 0; base < n; base += tile) {
      launch.block(stats, [&] {
        // Block boundary between consecutive simulated tiles.
        shm.barrier();
        shm.fill(std::span<const word>(data).subspan(base, tile));
        stats.global_transactions += tile / w;
        stats.global_requests += tile;
        // Zero the histogram (one warp pass over the bins).
        for (std::size_t bin0 = 0; bin0 < bins; bin0 += w) {
          writes.clear();
          for (u32 lane = 0; lane < w && bin0 + lane < bins; ++lane) {
            writes.push_back({lane, tile + bin0 + lane, 0});
          }
          shm.warp_write(writes);
        }
        // __syncthreads: the histogram updates read bins other lanes zeroed.
        shm.barrier();
        // Every key increments its bin: warp-wide read of the counters (keys
        // with equal digits broadcast the read but serialize the writes,
        // which the CREW model surfaces as conflicting distinct updates --
        // modeled as one read + one write per key with intra-warp collisions
        // resolved in log-style rounds: colliding lanes retry, exactly the
        // hardware's atomic behavior).
        // The read-modify-write update rounds model shared-memory atomics:
        // tag them so the race detector exempts atomic/atomic pairs on the
        // same bin (see docs/LINT.md).
        shm.set_atomic_section(true);
        for (std::size_t k0 = 0; k0 < tile; k0 += w) {
          // Group this warp's keys by bin; each distinct bin gets one update
          // round per colliding lane (serialized atomics).
          std::vector<std::pair<std::size_t, u32>> lane_bins;  // (bin, lane)
          for (u32 lane = 0; lane < w && k0 + lane < tile; ++lane) {
            lane_bins.emplace_back(digit_of(data[base + k0 + lane]), lane);
          }
          std::sort(lane_bins.begin(), lane_bins.end());
          // Round-robin: in each round, one lane per distinct bin performs
          // its read-modify-write; lanes of the same bin go in later rounds.
          while (!lane_bins.empty()) {
            reads.clear();
            writes.clear();
            std::vector<std::pair<std::size_t, u32>> rest;
            std::size_t prev_bin = static_cast<std::size_t>(-1);
            for (const auto& [bin, lane] : lane_bins) {
              if (bin == prev_bin) {
                rest.emplace_back(bin, lane);
                continue;
              }
              prev_bin = bin;
              reads.push_back({lane, tile + bin});
              writes.push_back({lane, tile + bin, shm.peek(tile + bin) + 1});
            }
            shm.warp_read(reads);
            shm.warp_write(writes);
            lane_bins = std::move(rest);
            stats.warp_merge_steps += 1;
          }
        }
        shm.set_atomic_section(false);
        for (std::size_t i = 0; i < tile; ++i) {
          ++global_count[digit_of(data[base + i])];
        }
      });
    }

    // Global digit offsets (device-wide scan of the histograms): charged as
    // one coalesced pass over the per-tile histograms.
    std::vector<std::size_t> offset(bins, 0);
    std::exclusive_scan(global_count.begin(), global_count.end(),
                        offset.begin(), std::size_t{0});
    stats.global_transactions += (n / tile) * ceil_div(bins, w) * 2;

    // Stable scatter: every key moves to offset[digit] (uncoalesced
    // writes: charge one transaction per key segment change, i.e. per key
    // in the worst case, bins/w-coalesced typically — charged per key /
    // (w / bins capped)).
    for (std::size_t i = 0; i < n; ++i) {
      buffer[offset[digit_of(data[i])]++] = data[i];
    }
    launch.swap();
    stats.global_requests += 2 * n;
    const std::size_t scatter_eff =
        std::max<std::size_t>(1, w / std::min<std::size_t>(bins, w));
    stats.global_transactions += n / scatter_eff + n / w;

    launch.close_round("radix pass " + std::to_string(pass), stats);
  }

  return launch.finish(output);
}

gpusim::ir::KernelDesc describe_radix(u32 w, u32 b, u32 pad, u32 digit_bits) {
  namespace ir = gpusim::ir;
  WCM_EXPECTS(digit_bits >= 1 && digit_bits <= 16, "digit width 1..16");
  WCM_EXPECTS(w > 0 && b >= w && is_pow2(b),
              "block size must be a power of two no smaller than the warp");
  ir::KernelDesc d;
  d.kernel = "radix";
  d.w = w;
  d.b = b;
  d.pad = pad;
  const u32 bins = u32{1} << digit_bits;
  // The tile's b*E keys occupy [0, bE); the histogram lives at
  // [bE, bE + bins).
  const int e = d.add_symbol("E", ir::SymRole::parameter, 3,
                             static_cast<i64>(w) - 1, 2, 1);
  d.words = ir::LinForm::sym(e, static_cast<i64>(b)) +
            ir::LinForm::constant(static_cast<i64>(bins));
  const ir::LinForm hist_lo = ir::LinForm::sym(e, static_cast<i64>(b));
  const ir::LinForm hist_hi =
      ir::LinForm::sym(e, static_cast<i64>(b)) +
      ir::LinForm::constant(static_cast<i64>(bins) - 1);

  d.groups.push_back(ir::barrier_group("pass entry"));
  d.groups.push_back(ir::with_region(
      ir::fill_group("tile keys", "1 per pass"), ir::LinForm::constant(0),
      ir::LinForm::sym(e, static_cast<i64>(b)) - ir::LinForm::constant(1)));
  if (bins >= w) {
    // Zeroing sweeps the histogram in w-wide chunks; the chunk base bin0
    // steps by w, so it is itself ≡ 0 (mod w) and uniform across lanes.
    // The last chunk is partial when w does not divide bins.
    const i64 last_chunk = static_cast<i64>(w) *
                           ((static_cast<i64>(bins) - 1) /
                            static_cast<i64>(w));
    const int bin0 = d.add_symbol("bin0", ir::SymRole::parameter, 0,
                                  last_chunk, w, 0);
    d.groups.push_back(ir::affine_group(
        "histogram zero", ir::GroupKind::write, w,
        ir::LinForm::sym(e, static_cast<i64>(b)) + ir::LinForm::sym(bin0),
        ir::LinForm::constant(1), "bins/w chunks x passes"));
    d.groups.back().masked = bins % w != 0;
  } else {
    d.groups.push_back(ir::affine_group(
        "histogram zero", ir::GroupKind::write, bins,
        ir::LinForm::sym(e, static_cast<i64>(b)), ir::LinForm::constant(1),
        "1 step x passes"));
  }
  d.groups.push_back(ir::barrier_group("after zeroing"));
  // Atomic bin updates: each conflict-resolution round serves lanes with
  // pairwise-distinct bins, all inside the bins-wide histogram region.
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "histogram update load", ir::GroupKind::read, std::min(w, bins),
          ir::LinForm::constant(static_cast<i64>(bins)),
          ir::LinForm::constant(1),
          "<= w rounds x tile/w chunks x passes", /*atomic=*/true),
      hist_lo, hist_hi));
  d.groups.push_back(ir::with_region(
      ir::window_group(
          "histogram update store", ir::GroupKind::write, std::min(w, bins),
          ir::LinForm::constant(static_cast<i64>(bins)),
          ir::LinForm::constant(1),
          "<= w rounds x tile/w chunks x passes", /*atomic=*/true),
      hist_lo, hist_hi));
  return d;
}

}  // namespace wcm::sort
