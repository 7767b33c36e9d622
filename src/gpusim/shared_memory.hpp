#pragma once
// Banked shared memory for one simulated thread block.  Every warp-wide
// access is one synchronous DMM step: inactive lanes simply do not submit a
// request, and the step is priced by dmm::analyze_step on the layout's
// physical addresses.  The words themselves are held at their logical
// addresses (the layout is a bijection, so only pricing needs physical
// ones); kernels read values with peek().  Conflict statistics accumulate
// here and are read out per kernel by the sort engine.

#include <span>
#include <vector>

#include "dmm/access.hpp"
#include "gpusim/layout.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace wcm::gpusim {

using dmm::word;

/// A lane's read request: lane id within the warp and shared address.
struct LaneRead {
  u32 lane = 0;
  std::size_t addr = 0;
};

/// A lane's write request.
struct LaneWrite {
  u32 lane = 0;
  std::size_t addr = 0;
  word value = 0;
};

class SharedMemory {
 public:
  /// `words` counts *logical* words.  All addresses in the public API are
  /// logical; bank-conflict accounting uses the physical (padded)
  /// addresses.
  SharedMemory(u32 warp_size, std::size_t words, u32 pad = 0);

  /// Full layout control (padding and/or a per-row bank permutation, see
  /// gpusim/layout.hpp); the layout's w is the warp size.
  SharedMemory(const SharedLayout& layout, std::size_t words);

  [[nodiscard]] u32 warp_size() const noexcept { return layout_.w; }
  [[nodiscard]] std::size_t words() const noexcept { return mem_.size(); }
  [[nodiscard]] const SharedLayout& layout() const noexcept { return layout_; }

  /// One warp-wide load, accounted as one DMM step; the lanes' values are
  /// read with peek().  Lanes must be distinct.
  void warp_read(std::span<const LaneRead> reads);

  /// One warp-wide store, accounted as one DMM step.  The values land only
  /// once the step is priced, so a rejected step (a CREW violation) leaves
  /// memory unchanged.
  void warp_write(std::span<const LaneWrite> writes);

  /// Execution barrier (__syncthreads): free at the machine level, but
  /// recorded in an attached trace — the race detector only pairs accesses
  /// within one barrier interval.  Kernels emit one at every sync point,
  /// including block boundaries when one SharedMemory hosts several
  /// simulated blocks in sequence.
  void barrier();

  /// Bracket a run of warp_read/warp_write steps that model atomic
  /// read-modify-writes (shared histogram updates): recorded steps carry
  /// the atomic tag, which exempts atomic/atomic pairs from race pairing.
  void set_atomic_section(bool on) noexcept { atomic_section_ = on; }

  /// Host-side (unaccounted) access for kernel setup / result extraction.
  /// Recorded as an initialization marker in an attached trace.
  void fill(std::span<const word> values, std::size_t base = 0);
  [[nodiscard]] std::vector<word> dump(std::size_t base,
                                       std::size_t count) const;
  [[nodiscard]] word peek(std::size_t addr) const {
    WCM_EXPECTS(addr < mem_.size(), "peek out of bounds");
    return mem_[addr];
  }
  void poke(std::size_t addr, word v) {
    WCM_EXPECTS(addr < mem_.size(), "poke out of bounds");
    mem_[addr] = v;
  }

  [[nodiscard]] const dmm::MachineStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept { stats_ = {}; }

  /// Attach an access-trace recorder (see gpusim/trace.hpp); nullptr
  /// detaches.  The recorder adopts this memory's warp size and word count
  /// and must outlive its attachment.  A trace holds at most 64 lanes: a
  /// wider memory throws wcm::config_error and stays unattached.
  void attach_trace(class TraceRecorder* recorder);

 private:
  /// The one warp step: checks every lane, then prices the step on the
  /// physical addresses and adds its cost to stats().
  template <class Lane>
  void price(std::span<const Lane> lanes, dmm::Op op);

  SharedLayout layout_;
  std::vector<word> mem_;  // indexed by logical address
  dmm::MachineStats stats_;
  class TraceRecorder* recorder_ = nullptr;
  bool atomic_section_ = false;
  std::vector<dmm::Request> scratch_;  // reused request buffer
};

}  // namespace wcm::gpusim
