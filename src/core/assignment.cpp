#include "core/assignment.hpp"

#include <iomanip>
#include <numeric>
#include <sstream>

#include "dmm/bank_matrix.hpp"
#include "util/check.hpp"

namespace wcm::core {

std::size_t WarpAssignment::total_a() const noexcept {
  return std::accumulate(threads.begin(), threads.end(), std::size_t{0},
                         [](std::size_t acc, const ThreadAssign& t) {
                           return acc + t.from_a;
                         });
}

std::size_t WarpAssignment::total_b() const noexcept {
  return std::accumulate(threads.begin(), threads.end(), std::size_t{0},
                         [](std::size_t acc, const ThreadAssign& t) {
                           return acc + t.from_b;
                         });
}

void WarpAssignment::validate() const {
  WCM_EXPECTS(is_pow2(w), "warp size must be a power of two");
  WCM_EXPECTS(threads.size() == w, "need exactly w thread assignments");
  for (const ThreadAssign& t : threads) {
    WCM_EXPECTS(t.from_a + t.from_b == E, "every thread must merge E keys");
  }
}

WarpAssignment WarpAssignment::mirrored() const {
  WarpAssignment m = *this;
  for (ThreadAssign& t : m.threads) {
    std::swap(t.from_a, t.from_b);
    t.a_first = !t.a_first;
  }
  return m;
}

namespace {

/// Shared-memory address of each element a thread reads, in read order.
/// A occupies [0, total_a); B starts at the next multiple of w.
struct AddressSchedule {
  std::vector<std::vector<std::size_t>> per_thread;  // [thread][step] -> addr
  std::size_t b_base = 0;
};

AddressSchedule schedule_addresses(const WarpAssignment& wa) {
  AddressSchedule sched;
  sched.b_base = ceil_div(wa.total_a(), wa.w) * wa.w;
  sched.per_thread.assign(wa.w, {});

  std::size_t a_cursor = 0;
  std::size_t b_cursor = sched.b_base;
  for (u32 t = 0; t < wa.w; ++t) {
    const ThreadAssign& ta = wa.threads[t];
    auto& addrs = sched.per_thread[t];
    addrs.reserve(wa.E);
    // The thread's A elements are the next from_a of the A list (threads
    // consume the lists in thread order because output ranks ascend), and
    // likewise for B; a_first decides the interleaving in *time*.
    std::vector<std::size_t> a_part(ta.from_a), b_part(ta.from_b);
    std::iota(a_part.begin(), a_part.end(), a_cursor);
    std::iota(b_part.begin(), b_part.end(), b_cursor);
    a_cursor += ta.from_a;
    b_cursor += ta.from_b;
    if (ta.a_first) {
      addrs.insert(addrs.end(), a_part.begin(), a_part.end());
      addrs.insert(addrs.end(), b_part.begin(), b_part.end());
    } else {
      addrs.insert(addrs.end(), b_part.begin(), b_part.end());
      addrs.insert(addrs.end(), a_part.begin(), a_part.end());
    }
  }
  return sched;
}

}  // namespace

WarpEval evaluate_schedule(
    const std::vector<std::vector<std::size_t>>& per_thread, u32 w, u32 E,
    u32 s) {
  WCM_EXPECTS(per_thread.size() == w, "need one schedule per thread");
  WarpEval eval;
  eval.step_degree.reserve(E);
  std::vector<dmm::Request> step;
  step.reserve(w);
  for (u32 j = 0; j < E; ++j) {
    step.clear();
    const std::size_t aligned_bank = (s + j) % w;
    for (u32 t = 0; t < w; ++t) {
      const std::size_t addr = per_thread[t][j];
      step.push_back({t, addr, dmm::Op::read, 0});
      if (addr % w == aligned_bank) {
        ++eval.aligned;
      }
    }
    const dmm::StepCost cost = dmm::analyze_step(step, w);
    eval.step_degree.push_back(cost.max_bank_degree);
    eval.totals += cost;
  }
  return eval;
}

WarpEval evaluate_warp(const WarpAssignment& wa, u32 s) {
  wa.validate();
  WCM_EXPECTS(s < wa.w, "alignment window start out of range");
  return evaluate_schedule(schedule_addresses(wa).per_thread, wa.w, wa.E, s);
}

void optimize_scan_orders(WarpAssignment& wa, u32 s) {
  wa.validate();
  WCM_EXPECTS(s < wa.w, "alignment window start out of range");
  std::size_t ca = 0;  // A elements consumed by previous threads
  std::size_t cb = 0;
  for (ThreadAssign& t : wa.threads) {
    const u32 w = wa.w;
    const u32 bank_a = static_cast<u32>(ca % w);
    const u32 bank_b = static_cast<u32>(cb % w);
    // a_first: A read at iterations 0.., B at iterations from_a..
    const std::size_t af = (bank_a == s % w ? t.from_a : 0) +
                           (bank_b == (s + t.from_a) % w ? t.from_b : 0);
    // b_first: B read at iterations 0.., A at iterations from_b..
    const std::size_t bf = (bank_b == s % w ? t.from_b : 0) +
                           (bank_a == (s + t.from_b) % w ? t.from_a : 0);
    t.a_first = af >= bf;
    ca += t.from_a;
    cb += t.from_b;
  }
}

std::string render_warp(const WarpAssignment& wa) {
  wa.validate();
  const AddressSchedule sched = schedule_addresses(wa);
  const std::size_t na = wa.total_a();
  const std::size_t nb = wa.total_b();

  // Label every address with the thread that reads it.
  std::vector<std::string> label(sched.b_base + nb);
  for (u32 t = 0; t < wa.w; ++t) {
    for (const std::size_t addr : sched.per_thread[t]) {
      label[addr] = std::to_string(t);
    }
  }

  std::ostringstream os;
  os << "A (" << na << " elements):\n"
     << dmm::render_bank_matrix(
            na, wa.w, [&](std::size_t a) { return label[a]; })
     << "B (" << nb << " elements):\n"
     << dmm::render_bank_matrix(nb, wa.w, [&](std::size_t a) {
          return label[sched.b_base + a];
        });
  return os.str();
}

std::string render_conflict_heatmap(const WarpAssignment& wa) {
  wa.validate();
  const AddressSchedule sched = schedule_addresses(wa);

  std::ostringstream os;
  os << "step |";
  for (u32 b = 0; b < wa.w; ++b) {
    os << ' ' << (b % 10);
  }
  os << "  (bank mod 10)\n-----+" << std::string(2 * wa.w + 1, '-') << '\n';
  for (u32 j = 0; j < wa.E; ++j) {
    std::vector<u32> degree(wa.w, 0);
    for (u32 t = 0; t < wa.w; ++t) {
      ++degree[sched.per_thread[t][j] % wa.w];
    }
    os << std::setw(4) << j << " |";
    for (u32 b = 0; b < wa.w; ++b) {
      if (degree[b] == 0) {
        os << " .";
      } else if (degree[b] < 10) {
        os << ' ' << degree[b];
      } else {
        os << ' ' << static_cast<char>('a' + (degree[b] - 10) % 26);
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace wcm::core
