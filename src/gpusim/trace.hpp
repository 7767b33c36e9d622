#pragma once
// Access-trace recording and replay.  A Trace captures the warp-wide
// shared-memory access stream of a simulated kernel (logical addresses, so
// it is layout-independent); replaying it under a different SharedLayout
// re-prices the same algorithm under a different banking scheme without
// re-running the sort — e.g. "what would this exact access stream cost
// with one word of padding?".  Traces serialize to a simple line-oriented
// text format for offline analysis.
//
// Format v2 (WCMT2) — one line per event:
//   WCMT2 <warp_size> <logical_words> <steps>
//   R lane:addr lane:addr ...      warp-wide load
//   W lane:addr ...                warp-wide store
//   AR lane:addr ... / AW ...      atomic load / store (read-modify-write
//                                  halves; exempt from race pairing)
//   B                              execution barrier (__syncthreads)
//   F <base> <count>               host-side fill of [base, base+count)
//
// The active mask of a step is implied by its lane set (TraceStep::
// active_mask).  v1 streams (`WCMT <warp_size> <steps>`, R/W lines only)
// still parse; they carry no barriers and an unknown word count (0).

#include <iosfwd>
#include <vector>

#include "dmm/access.hpp"
#include "gpusim/shared_memory.hpp"

namespace wcm::gpusim {

/// Kind of one trace event.  `read`/`write` are warp-wide DMM steps;
/// `barrier` and `fill` are zero-cost markers consumed by the static
/// analyzer (see analyze/analyzer.hpp).
enum class StepKind : unsigned char { read, write, barrier, fill };

struct TraceStep {
  StepKind kind = StepKind::read;
  /// True for the halves of an atomic read-modify-write (histogram
  /// updates); the race detector exempts atomic/atomic pairs.
  bool atomic = false;
  /// (lane, logical address) per active lane; read/write steps only.
  std::vector<std::pair<u32, std::size_t>> accesses;
  /// Initialized range; fill steps only.
  std::size_t fill_base = 0;
  std::size_t fill_count = 0;

  [[nodiscard]] bool is_write() const noexcept {
    return kind == StepKind::write;
  }
  [[nodiscard]] bool is_access() const noexcept {
    return kind == StepKind::read || kind == StepKind::write;
  }
  /// Bit l set iff lane l is active in this step (warp sizes <= 64).
  [[nodiscard]] u64 active_mask() const noexcept;
};

struct Trace {
  u32 warp_size = 32;
  /// Logical words of the recorded SharedMemory; 0 when unknown (v1).
  std::size_t logical_words = 0;
  std::vector<TraceStep> steps;

  [[nodiscard]] std::size_t total_accesses() const noexcept;
  [[nodiscard]] std::size_t access_steps() const noexcept;
  [[nodiscard]] std::size_t barrier_count() const noexcept;
};

/// Records every warp_read / warp_write / barrier / fill of a SharedMemory
/// into a Trace.  Attach with SharedMemory::attach_trace; detach by
/// attaching nullptr or destroying the SharedMemory first.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(u32 warp_size) { trace_.warp_size = warp_size; }

  /// Called by SharedMemory::attach_trace: adopts the memory's geometry
  /// (and insists on a consistent one once steps were recorded).  Throws
  /// wcm::config_error for a warp size outside 1..64, the lanes a trace
  /// step can hold.
  void on_attach(u32 warp_size, std::size_t logical_words);

  void on_read(std::span<const LaneRead> reads, bool atomic = false);
  void on_write(std::span<const LaneWrite> writes, bool atomic = false);
  void on_barrier();
  void on_fill(std::size_t base, std::size_t count);

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] Trace take() noexcept { return std::move(trace_); }

 private:
  Trace trace_;
};

/// Replay a trace's access stream through dmm::analyze_step under the
/// given layout and return the contention statistics.  Barrier and fill
/// markers are free.  Replaying under the layout the trace was recorded
/// with reproduces the live stats exactly (asserted by tests).
[[nodiscard]] dmm::MachineStats replay_stats(const Trace& trace,
                                             const SharedLayout& layout);

/// Per-step costs of the same replay, index-aligned with trace.steps
/// (zero-cost entries for barriers and fills).  This is the measured side
/// of the stride analyzer's predicted-vs-measured cross-check.
[[nodiscard]] std::vector<dmm::StepCost> replay_step_costs(
    const Trace& trace, const SharedLayout& layout);

/// Serialize / parse the text format.  write_trace always emits v2;
/// read_trace accepts v1 and v2 and throws wcm::parse_error on malformed
/// input (bad magic, truncated streams, duplicate lanes within a step,
/// lane ids >= warp_size, trailing garbage).
void write_trace(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_trace(std::istream& is);

}  // namespace wcm::gpusim
