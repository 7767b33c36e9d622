#pragma once
// Banked shared memory for one simulated thread block.  Every warp-wide
// access is one synchronous DMM step: inactive lanes simply do not submit a
// request, and the step is priced by dmm::analyze_step on the layout's
// physical addresses.  The words themselves are held at their logical
// addresses (the layout is a bijection, so only pricing needs physical
// ones); kernels read values with peek().  Conflict statistics accumulate
// here and are read out per kernel by the sort engine.
//
// A run of steps whose addresses never depend on the keys (staging, the
// register sort's loads and stores, a thread-contiguous write-back, a
// whole shearsort tile) prices the same in every block of a launch.
// oblivious() prices such a phase once, on the full path with every
// check, keeps the phase's own MachineStats, and lets each later call with
// the same key do only the phase's data movement and add the kept stats.
// While a TraceRecorder is attached or any failpoint is armed every call
// takes the full path, so traces and fault schedules see every step.

#include <span>
#include <string_view>
#include <utility>
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

  /// Names a data-independent phase and the shape values its addresses
  /// depend on beyond this memory's layout and size.  The memo keeps one
  /// slot per phase name.
  struct PhaseKey {
    std::string_view phase;
    std::size_t shape0 = 0;
    std::size_t shape1 = 0;
    bool operator==(const PhaseKey&) const = default;
  };

  /// Run a phase whose warp steps never depend on the keys.  The first
  /// call with `key` runs `steps` (every check, every step priced) and
  /// keeps the phase's own stats; a later call with the same key runs
  /// `move`, which must leave every word and output that is read later as
  /// `steps` would, and adds the kept stats, so every total (and the
  /// running max_bank_degree) comes out as the full path gives it.  A different key re-prices the phase and
  /// replaces its slot; a step that throws while a phase is priced leaves
  /// stats() as the full path would and keeps nothing.  With a recorder
  /// attached or any failpoint armed, `steps` always runs.
  template <typename Steps, typename Move>
  void oblivious(const PhaseKey& key, Steps&& steps, Move&& move) {
    if (!memo_enabled()) {
      steps();
      return;
    }
    if (const dmm::MachineStats* kept = kept_stats(key)) {
      move();
      stats_ += *kept;
      return;
    }
    const dmm::MachineStats before = stats_;
    stats_ = {};
    try {
      steps();
    } catch (...) {
      resume(before);
      throw;
    }
    keep(key);
    resume(before);
  }

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

  /// oblivious() helpers: whether the memo may be used at all, the kept
  /// stats of `key` (nullptr when its slot is empty or holds another key),
  /// keeping stats() as `key`'s, and stats() = before + stats().
  [[nodiscard]] bool memo_enabled() const;
  [[nodiscard]] const dmm::MachineStats* kept_stats(const PhaseKey& key) const;
  void keep(const PhaseKey& key);
  void resume(const dmm::MachineStats& before) noexcept;

  SharedLayout layout_;
  std::vector<word> mem_;  // indexed by logical address
  dmm::MachineStats stats_;
  class TraceRecorder* recorder_ = nullptr;
  bool atomic_section_ = false;
  std::vector<dmm::Request> scratch_;  // reused request buffer
  std::vector<std::pair<PhaseKey, dmm::MachineStats>> memo_;  // one per phase
};

}  // namespace wcm::gpusim
