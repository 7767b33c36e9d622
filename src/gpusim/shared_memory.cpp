#include "gpusim/shared_memory.hpp"

#include <algorithm>

#include "gpusim/trace.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::gpusim {

SharedMemory::SharedMemory(u32 warp_size, std::size_t words, u32 pad)
    : SharedMemory(SharedLayout{warp_size, pad}, words) {}

SharedMemory::SharedMemory(const SharedLayout& layout, std::size_t words)
    : layout_(layout), mem_(words, word{0}) {
  layout.validate();
  WCM_FAILPOINT("sim.smem.alloc", simulation_error,
                "injected shared-memory allocation failure");
}

void SharedMemory::attach_trace(TraceRecorder* recorder) {
  if (recorder != nullptr) {
    recorder->on_attach(layout_.w, mem_.size());
  }
  recorder_ = recorder;
}

void SharedMemory::barrier() {
  if (recorder_ != nullptr) {
    recorder_->on_barrier();
  }
}

template <class Lane>
void SharedMemory::price(std::span<const Lane> lanes, dmm::Op op) {
  WCM_CHECK_SIM(lanes.size() <= layout_.w, "more requests than lanes");
  scratch_.clear();
  for (const Lane& l : lanes) {
    WCM_CHECK_SIM(l.lane < layout_.w, "lane out of range");
    WCM_CHECK_SIM(l.addr < mem_.size(), op == dmm::Op::read
                                            ? "read out of bounds"
                                            : "write out of bounds");
    scratch_.push_back({l.lane, layout_.physical(l.addr), op, 0});
  }
  stats_ += dmm::analyze_step(scratch_, layout_.w);
}

void SharedMemory::warp_read(std::span<const LaneRead> reads) {
  WCM_FAILPOINT("sim.smem.invariant", simulation_error,
                "injected mid-access invariant break");
  price(reads, dmm::Op::read);
  if (recorder_ != nullptr) {
    recorder_->on_read(reads, atomic_section_);
  }
}

void SharedMemory::warp_write(std::span<const LaneWrite> writes) {
  price(writes, dmm::Op::write);
  if (recorder_ != nullptr) {
    recorder_->on_write(writes, atomic_section_);
  }
  for (const LaneWrite& w : writes) {
    mem_[w.addr] = w.value;
  }
}

bool SharedMemory::memo_enabled() const {
  return recorder_ == nullptr && !failpoint::any_armed();
}

const dmm::MachineStats* SharedMemory::kept_stats(const PhaseKey& key) const {
  for (const auto& [k, kept] : memo_) {
    if (k.phase == key.phase) {
      return k == key ? &kept : nullptr;
    }
  }
  return nullptr;
}

void SharedMemory::keep(const PhaseKey& key) {
  for (auto& [k, kept] : memo_) {
    if (k.phase == key.phase) {
      k = key;
      kept = stats_;
      return;
    }
  }
  memo_.emplace_back(key, stats_);
}

void SharedMemory::resume(const dmm::MachineStats& before) noexcept {
  const dmm::MachineStats phase = stats_;
  stats_ = before;
  stats_ += phase;
}

void SharedMemory::fill(std::span<const word> values, std::size_t base) {
  WCM_EXPECTS(base + values.size() <= mem_.size(), "fill out of bounds");
  if (recorder_ != nullptr && !values.empty()) {
    recorder_->on_fill(base, values.size());
  }
  std::copy(values.begin(), values.end(),
            mem_.begin() + static_cast<std::ptrdiff_t>(base));
}

std::vector<word> SharedMemory::dump(std::size_t base,
                                     std::size_t count) const {
  WCM_EXPECTS(base + count <= mem_.size(), "dump out of bounds");
  return {mem_.begin() + static_cast<std::ptrdiff_t>(base),
          mem_.begin() + static_cast<std::ptrdiff_t>(base + count)};
}

}  // namespace wcm::gpusim
