#pragma once
// Software configuration of the GPU pairwise merge sort (paper Sec. II-A):
// E = elements per thread per merge round, b = threads per thread block,
// w = warp size (= number of shared-memory banks).  Presets mirror the
// parameters the paper reports for Thrust and Modern GPU.

#include <string>

#include "gpusim/layout.hpp"
#include "util/math.hpp"

namespace wcm::gpusim {
class TraceRecorder;
}  // namespace wcm::gpusim

namespace wcm::sort {

struct SortConfig {
  u32 E = 15;  ///< elements per thread per merge round
  u32 b = 512; ///< threads per thread block (power of two, multiple of w)
  u32 w = 32;  ///< warp size == number of shared-memory banks
  /// Padding words inserted after every w logical words of shared memory
  /// (Dotsenko-style bank-conflict mitigation; 0 = the layout the paper
  /// attacks).
  u32 padding = 0;
  /// Shared-memory bank permutation (gpusim/layout.hpp).  The engines
  /// stage their tiles under this layout; xor/rotation are the memory-free
  /// defenses the certified shearsort engine relies on.
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  /// Merge-read accounting fidelity.  The paper's model charges one shared
  /// read per lock-step iteration: the *consumed* element (default).  Real
  /// kernels keep both list heads in registers: two initial loads, then a
  /// *refill* load of the consumed side each iteration — one access per
  /// step either way, shifted by one element.  The attack survives both
  /// countings (an aligned column's refills collide one bank over); the
  /// ablation bench quantifies the difference.
  bool realistic_refills = false;
  /// Optional shared-memory access-trace capture: when non-null, every
  /// engine attaches this recorder to its block-local SharedMemory, so the
  /// whole sort's access stream (with barrier and fill markers) lands in
  /// one Trace for `wcm::analyze` / `wcmgen analyze` (see docs/LINT.md).
  /// Not part of the simulated machine; ignored by validate()/to_string().
  gpusim::TraceRecorder* trace_sink = nullptr;

  /// Elements per thread-block tile (bE).
  [[nodiscard]] std::size_t tile() const noexcept {
    return static_cast<std::size_t>(E) * b;
  }
  /// Shared-memory bytes one block allocates (bE 4-byte keys, plus the
  /// padding waste; sort::block_shared_bytes).
  [[nodiscard]] std::size_t shared_bytes() const noexcept;
  [[nodiscard]] u32 warps_per_block() const noexcept { return b / w; }

  /// Throws wcm::config_error when the configuration is malformed.
  void validate() const;

  [[nodiscard]] std::string to_string() const;
};

/// Named parameter sets used throughout the paper's evaluation.
[[nodiscard]] SortConfig params_15_512();
[[nodiscard]] SortConfig params_17_256();
[[nodiscard]] SortConfig params_15_128();

}  // namespace wcm::sort
