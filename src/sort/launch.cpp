#include "sort/launch.hpp"

#include <algorithm>

#include "sort/blocksort.hpp"
#include "telemetry/span.hpp"
#include "util/check.hpp"

namespace wcm::sort {

std::size_t block_shared_bytes(std::size_t words, u32 w, u32 pad) noexcept {
  return (words + words / w * pad) * 4;
}

namespace {

std::size_t checked_tile(const LaunchSpec& spec, std::size_t n,
                         const SortConfig& cfg, const gpusim::Device& dev) {
  WCM_CHECK_CONFIG(cfg.w == dev.warp_size,
                   "config warp size must match device");
  const std::size_t tile = spec.tile != 0 ? spec.tile : cfg.tile();
  WCM_CHECK_CONFIG(n > 0 && n % tile == 0,
                   "input size must be a positive multiple of bE");
  return tile;
}

}  // namespace

Launch::Launch(const LaunchSpec& spec, std::span<const word> input,
               const SortConfig& cfg, const gpusim::Device& dev)
    : engine_(spec.engine),
      sorts_(spec.sorts),
      tile_(checked_tile(spec, input.size(), cfg, dev)),
      cal_(library_calibration(spec.library)),
      launch_{input.size() / tile_, cfg.b,
              block_shared_bytes(tile_ + spec.extra_words, cfg.w,
                                 cfg.padding)},
      report_{cfg, dev, input.size(), {}, {}, {}},
      keys_(input.begin(), input.end()),
      buffer_(spec.ping_pong ? input.size() : 0),
      shm_(gpusim::SharedLayout{cfg.w, cfg.padding, cfg.layout},
           tile_ + spec.extra_words) {
  shm_.attach_trace(cfg.trace_sink);
}

void Launch::close_round(std::string name, const gpusim::KernelStats& stats) {
  report_.close_round(engine_, std::move(name), stats, launch_, cal_);
}

void Launch::stage_tile(std::span<const word> values) {
  const u32 b = cfg().b;
  const u32 w = cfg().w;
  const std::size_t per_thread = values.size() / b;
  shm_.oblivious(
      {"stage", values.size(), b},
      [&] {
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          for (std::size_t s = 0; s < per_thread; ++s) {
            writes_.clear();
            for (u32 lane = 0; lane < w && warp_start + lane < b; ++lane) {
              const std::size_t addr = warp_start + lane + s * b;
              writes_.push_back({lane, addr, values[addr]});
            }
            shm_.warp_write(writes_);
          }
        }
      },
      [&] { shm_.fill(values.first(per_thread * b)); });
}

void Launch::unstage_tile(std::span<word> out) {
  const u32 b = cfg().b;
  const u32 w = cfg().w;
  const std::size_t per_thread = out.size() / b;
  shm_.oblivious(
      {"unstage", out.size(), b},
      [&] {
        for (u32 warp_start = 0; warp_start < b; warp_start += w) {
          for (std::size_t s = 0; s < per_thread; ++s) {
            reads_.clear();
            for (u32 lane = 0; lane < w && warp_start + lane < b; ++lane) {
              reads_.push_back({lane, warp_start + lane + s * b});
            }
            shm_.warp_read(reads_);
          }
        }
      },
      [] {});
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = shm_.peek(i);
  }
}

void Launch::block_sort_round(const char* span) {
  const telemetry::Span scope(span);
  gpusim::KernelStats stats;
  for (std::size_t base = 0; base < n(); base += tile_) {
    block(stats, [&] {
      simulate_block_sort(shm_, std::span<word>(keys_).subspan(base, tile_),
                          cfg(), stats);
    });
  }
  close_round("block-sort", stats);
}

SortReport Launch::finish(std::vector<word>* output) {
  WCM_CHECK_SIM(!sorts_ || std::is_sorted(keys_.begin(), keys_.end()),
                std::string(engine_) + " sort left its keys unsorted");
  if (output != nullptr) {
    *output = std::move(keys_);
  }
  return std::move(report_);
}

}  // namespace wcm::sort
