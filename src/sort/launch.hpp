#pragma once
// One simulated kernel launch, the frame every engine builds its run on.
// The paper's cost argument is per thread block (Sec. II-A): a block
// stages its tile coalesced into banked shared memory, works on it, and
// writes it back.  Launch owns everything around that block body:
//
//   * setup: the checks every engine shares (a config_error when the
//     device's warp differs from cfg.w or the input is not whole tiles),
//     the SortReport, the key copy (plus a ping-pong buffer for engines
//     that scatter between rounds) and the block-local SharedMemory under
//     cfg's padding and layout, with cfg.trace_sink attached;
//   * pricing: one formula for a block's shared bytes, and close_round()
//     with the engine name, launch shape and calibration already bound;
//   * block(): the per-block fold — reset the shared-memory stats, run
//     the block, add its stats to the round and count the block;
//   * finish(): the one postcondition (sorted keys, checked as a
//     simulation invariant) and the hand-off of the output.
//
// It also holds the block-level pieces several engines share: coalesced
// staging (thread t < b touches t, t + b, t + 2b, ...), the merge sorts'
// block-sort base round, and lane buffers reused across warp steps.
//
// Phases whose addresses never depend on the keys are priced once per
// launch through SharedMemory::oblivious: staging and unstaging here, the
// register-sort loads and stores (sort/blocksort.cpp), the thread-
// contiguous merge write-back (sort/block_merge.cpp) and a whole shearsort
// tile.  The first block runs them on the full path; later blocks of the
// same shape only move the data and add the kept stats.  While
// cfg.trace_sink is set or any failpoint is armed every block runs every
// step.

#include <span>
#include <string>
#include <vector>

#include "gpusim/shared_memory.hpp"
#include "sort/pairwise_sort.hpp"

namespace wcm::sort {

/// Modeled shared-memory bytes of one block holding `words` logical 4-byte
/// words with `pad` padding words after every `w`: (words + words/w*pad)*4.
[[nodiscard]] std::size_t block_shared_bytes(std::size_t words, u32 w,
                                             u32 pad) noexcept;

/// What an engine launches, beside its SortConfig.
struct LaunchSpec {
  /// Engine label: the `engine` of every closed round and the name in the
  /// postcondition's message.
  const char* engine = "";
  /// Keys per block; 0 means cfg.tile().
  std::size_t tile = 0;
  /// Shared words per block past the tile (radix bins, scan totals).
  std::size_t extra_words = 0;
  /// Allocate buffer(), a second n-key array a round scatters into.
  bool ping_pong = false;
  /// Calibration the rounds are priced with.
  MergeSortLibrary library = MergeSortLibrary::thrust;
  /// finish() checks that the keys are sorted (false for the scan).
  bool sorts = true;
};

class Launch {
 public:
  /// Check `cfg` against `dev` and the input, then copy the keys and set up
  /// the block's shared memory.  Throws wcm::config_error when
  /// dev.warp_size != cfg.w or |input| is not a positive multiple of the
  /// tile.
  Launch(const LaunchSpec& spec, std::span<const word> input,
         const SortConfig& cfg, const gpusim::Device& dev);
  Launch(const Launch&) = delete;
  Launch& operator=(const Launch&) = delete;

  [[nodiscard]] const SortConfig& cfg() const noexcept {
    return report_.config;
  }
  [[nodiscard]] std::size_t n() const noexcept { return report_.n; }
  [[nodiscard]] std::size_t tile() const noexcept { return tile_; }
  [[nodiscard]] gpusim::SharedMemory& shm() noexcept { return shm_; }

  /// The keys as the last round left them.
  [[nodiscard]] std::vector<word>& keys() noexcept { return keys_; }
  /// The ping-pong target (LaunchSpec::ping_pong); swap() makes it keys().
  [[nodiscard]] std::vector<word>& buffer() noexcept { return buffer_; }
  void swap() noexcept { keys_.swap(buffer_); }

  /// Lane buffers for one warp step at a time, reused across steps.
  [[nodiscard]] std::vector<gpusim::LaneRead>& reads() noexcept {
    return reads_;
  }
  [[nodiscard]] std::vector<gpusim::LaneWrite>& writes() noexcept {
    return writes_;
  }

  /// Simulate one block of a round: `body` runs on shm() from freshly reset
  /// stats, which are then added to `stats.shared`; the block counts once
  /// in blocks_launched and with tile() keys in elements_processed.
  template <typename Body>
  void block(gpusim::KernelStats& stats, Body&& body) {
    shm_.reset_stats();
    body();
    stats.shared += shm_.stats();
    stats.blocks_launched += 1;
    stats.elements_processed += tile_;
  }

  /// Price the round on the report's device and append it.
  void close_round(std::string name, const gpusim::KernelStats& stats);

  /// Coalesced staging of a tile (values.size() == tile()): thread t < b
  /// stores values[t + s*b] at that address for s = 0, 1, ..., one warp
  /// step per (warp, s); lanes past thread b - 1 stay masked.  Priced once
  /// per (tile, b); a repeat copies the values in.
  void stage_tile(std::span<const word> values);
  /// The inverse: the same warp steps as loads (priced once per
  /// (tile, b)), then the tile's shared words are copied to `out`
  /// (out.size() == tile()).
  void unstage_tile(std::span<word> out);

  /// The merge sorts' base case as one round "block-sort": every block
  /// sorts its own tile of keys() (sort/blocksort.hpp), under a span named
  /// `span` (a string literal).
  void block_sort_round(const char* span);

  /// Check the postcondition (keys sorted, unless LaunchSpec::sorts is
  /// false; a wcm::simulation_error otherwise), move the keys to `output`
  /// when non-null, and return the report.
  [[nodiscard]] SortReport finish(std::vector<word>* output);

 private:
  const char* engine_;
  bool sorts_;
  std::size_t tile_;
  gpusim::Calibration cal_;
  gpusim::LaunchConfig launch_;
  SortReport report_;
  std::vector<word> keys_;
  std::vector<word> buffer_;
  gpusim::SharedMemory shm_;
  std::vector<gpusim::LaneRead> reads_;
  std::vector<gpusim::LaneWrite> writes_;
};

}  // namespace wcm::sort
