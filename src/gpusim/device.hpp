#pragma once
// Device descriptors for the two GPUs the paper evaluates on.  All
// quantities are the published specifications of the physical cards; the
// cost-model calibration constants are separate (see cost_model.hpp) and
// documented as calibration, not measurement.  The Sec. IV-A occupancy
// rules the paper reasons with live in occupancy.hpp.

#include <cstddef>
#include <string>

#include "util/math.hpp"

namespace wcm::gpusim {

struct Device {
  std::string name;
  u32 cc_major = 0;  ///< compute capability
  u32 cc_minor = 0;
  u32 sm_count = 0;
  u32 cores_per_sm = 0;
  u32 warp_size = 32;
  u32 max_threads_per_sm = 0;
  u32 max_blocks_per_sm = 0;
  std::size_t shared_mem_per_sm = 0;     ///< bytes usable by resident blocks
  std::size_t shared_mem_per_block = 0;  ///< bytes one block may allocate
  double clock_ghz = 0.0;                ///< SM clock
  double mem_bandwidth_gbs = 0.0;        ///< global memory, GB/s (GB = 1e9 B)
  double global_latency_cycles = 0.0;    ///< average global load latency
  /// Shared-memory wavefront throughput per SM, wavefronts/cycle.
  double shared_wavefronts_per_cycle = 1.0;
  /// Resident warps per SM needed to reach peak issue throughput; below
  /// this, throughput degrades proportionally (latency no longer hidden).
  double warps_for_peak = 16.0;

  [[nodiscard]] u32 total_cores() const noexcept {
    return sm_count * cores_per_sm;
  }
};

/// Quadro M4000 (Maxwell, compute capability 5.2): 13 SMs x 128 cores,
/// 96 KiB shared memory per SM, 2048 resident threads per SM, ~192 GB/s.
[[nodiscard]] Device quadro_m4000();

/// GeForce RTX 2080 Ti (Turing, compute capability 7.5): 68 SMs x 64 cores,
/// 64 KiB shared memory usable per SM (the 96 KiB unified L1/shared is
/// configured 32 L1 / 64 shared as in the paper), 1024 resident threads per
/// SM, ~616 GB/s.
[[nodiscard]] Device rtx_2080ti();

/// GeForce GTX 770 (Kepler, compute capability 3.0): the card on which
/// Karsin et al. demonstrated the original hand-built conflict-heavy
/// inputs (paper Sec. II-C).  8 SMX x 192 cores, 48 KiB shared per SM,
/// ~224 GB/s.
[[nodiscard]] Device gtx_770();

/// What-if device with an arbitrary warp/bank width (the paper's analysis
/// is parameterized by w; this lets the benches explore the asymptotics
/// beyond the 32 banks of real NVIDIA hardware).  Other parameters follow
/// the M4000, scaled so aggregate width stays constant.
[[nodiscard]] Device synthetic_device(u32 warp_size);

/// The device a flag or campaign spec names: m4000 (or quadro), 2080ti (or
/// rtx2080ti), gtx770.  Throws wcm::parse_error naming the valid set.
[[nodiscard]] Device parse_device(const std::string& name);

}  // namespace wcm::gpusim
