#include "gpusim/device.hpp"

#include "util/cli.hpp"

namespace wcm::gpusim {

Device quadro_m4000() {
  Device d;
  d.name = "Quadro M4000";
  d.cc_major = 5;
  d.cc_minor = 2;
  d.sm_count = 13;
  d.cores_per_sm = 128;
  d.warp_size = 32;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 32;
  d.shared_mem_per_sm = 96 * 1024;
  d.shared_mem_per_block = 48 * 1024;
  d.clock_ghz = 0.773;
  d.mem_bandwidth_gbs = 192.3;
  d.global_latency_cycles = 368.0;
  d.shared_wavefronts_per_cycle = 1.0;
  d.warps_for_peak = 32.0;
  return d;
}

Device rtx_2080ti() {
  Device d;
  d.name = "RTX 2080 Ti";
  d.cc_major = 7;
  d.cc_minor = 5;
  d.sm_count = 68;
  d.cores_per_sm = 64;
  d.warp_size = 32;
  d.max_threads_per_sm = 1024;
  d.max_blocks_per_sm = 16;
  // 96 KiB unified L1/shared configured as 32 KiB L1 + 64 KiB shared, the
  // configuration the paper's parameter discussion assumes.
  d.shared_mem_per_sm = 64 * 1024;
  d.shared_mem_per_block = 64 * 1024;
  d.clock_ghz = 1.545;
  d.mem_bandwidth_gbs = 616.0;
  d.global_latency_cycles = 434.0;
  // Effective shared-pipe throughput, calibrated: Turing's unified L1/shared
  // services fewer shared wavefronts per cycle than Maxwell relative to its
  // clock; 0.5 reproduces the measured Thrust throughput ratio between the
  // two cards (see EXPERIMENTS.md, calibration).
  d.shared_wavefronts_per_cycle = 0.5;
  d.warps_for_peak = 32.0;
  return d;
}

Device gtx_770() {
  Device d;
  d.name = "GTX 770";
  d.cc_major = 3;
  d.cc_minor = 0;
  d.sm_count = 8;
  d.cores_per_sm = 192;
  d.warp_size = 32;
  d.max_threads_per_sm = 2048;
  d.max_blocks_per_sm = 16;
  d.shared_mem_per_sm = 48 * 1024;
  d.shared_mem_per_block = 48 * 1024;
  d.clock_ghz = 1.046;
  d.mem_bandwidth_gbs = 224.3;
  d.global_latency_cycles = 340.0;
  d.shared_wavefronts_per_cycle = 1.0;
  d.warps_for_peak = 32.0;
  return d;
}

Device synthetic_device(u32 warp_size) {
  Device d = quadro_m4000();
  d.name = "Synthetic-" + std::to_string(warp_size) + "bank";
  d.warp_size = warp_size;
  // Keep the aggregate lane count: cores per SM fixed, so issue width in
  // warps scales inversely with the warp size.
  d.max_threads_per_sm = 64 * warp_size;
  d.warps_for_peak = 32.0 * 32.0 / warp_size;
  // Wider warps mean wider tiles; allow one block to claim the whole SM's
  // shared memory so every (E, b = 4w) configuration fits.
  d.shared_mem_per_block = d.shared_mem_per_sm;
  return d;
}

Device parse_device(const std::string& name) {
  return cli::parse_choice<Device>("device", name,
                                   {{"m4000", quadro_m4000()},
                                    {"quadro", quadro_m4000()},
                                    {"2080ti", rtx_2080ti()},
                                    {"rtx2080ti", rtx_2080ti()},
                                    {"gtx770", gtx_770()}});
}

}  // namespace wcm::gpusim
