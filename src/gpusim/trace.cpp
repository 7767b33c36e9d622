#include "gpusim/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace wcm::gpusim {

u64 TraceStep::active_mask() const noexcept {
  u64 mask = 0;
  for (const auto& [lane, addr] : accesses) {
    (void)addr;
    if (lane < 64) {
      mask |= u64{1} << lane;
    }
  }
  return mask;
}

std::size_t Trace::total_accesses() const noexcept {
  std::size_t n = 0;
  for (const auto& s : steps) {
    n += s.accesses.size();
  }
  return n;
}

std::size_t Trace::access_steps() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(),
                    [](const TraceStep& s) { return s.is_access(); }));
}

std::size_t Trace::barrier_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(), [](const TraceStep& s) {
        return s.kind == StepKind::barrier;
      }));
}

void TraceRecorder::on_attach(u32 warp_size, std::size_t logical_words) {
  // The trace format and TraceStep::active_mask hold at most 64 lanes.
  WCM_CHECK_CONFIG(warp_size >= 1 && warp_size <= 64,
                   "trace warp size must be in 1..64");
  if (trace_.steps.empty()) {
    trace_.warp_size = warp_size;
    trace_.logical_words = logical_words;
    return;
  }
  WCM_CHECK_SIM(trace_.warp_size == warp_size,
                "trace recorder re-attached across warp sizes");
  trace_.logical_words = std::max(trace_.logical_words, logical_words);
}

void TraceRecorder::on_read(std::span<const LaneRead> reads, bool atomic) {
  TraceStep step;
  step.kind = StepKind::read;
  step.atomic = atomic;
  step.accesses.reserve(reads.size());
  for (const auto& r : reads) {
    step.accesses.emplace_back(r.lane, r.addr);
  }
  trace_.steps.push_back(std::move(step));
}

void TraceRecorder::on_write(std::span<const LaneWrite> writes, bool atomic) {
  TraceStep step;
  step.kind = StepKind::write;
  step.atomic = atomic;
  step.accesses.reserve(writes.size());
  for (const auto& w : writes) {
    step.accesses.emplace_back(w.lane, w.addr);
  }
  trace_.steps.push_back(std::move(step));
}

void TraceRecorder::on_barrier() {
  TraceStep step;
  step.kind = StepKind::barrier;
  trace_.steps.push_back(std::move(step));
}

void TraceRecorder::on_fill(std::size_t base, std::size_t count) {
  TraceStep step;
  step.kind = StepKind::fill;
  step.fill_base = base;
  step.fill_count = count;
  trace_.steps.push_back(std::move(step));
}

namespace {

/// The one replay loop: price every access step of `trace` under `layout`
/// and hand each step with its cost to `sink` (barriers and fills are
/// free: they arrive with a zero cost).
template <class Sink>
void replay(const Trace& trace, const SharedLayout& layout, Sink&& sink) {
  WCM_EXPECTS(layout.w == trace.warp_size,
              "layout bank count must match the trace's warp size");
  layout.validate();
  std::vector<dmm::Request> step;
  for (const auto& s : trace.steps) {
    if (!s.is_access()) {
      sink(s, dmm::StepCost{});
      continue;
    }
    const dmm::Op op = s.is_write() ? dmm::Op::write : dmm::Op::read;
    step.clear();
    for (const auto& [lane, addr] : s.accesses) {
      step.push_back({lane, layout.physical(addr), op, 0});
    }
    sink(s, dmm::analyze_step(step, trace.warp_size));
  }
}

}  // namespace

dmm::MachineStats replay_stats(const Trace& trace,
                               const SharedLayout& layout) {
  dmm::MachineStats stats;
  replay(trace, layout, [&](const TraceStep& s, const dmm::StepCost& cost) {
    if (s.is_access()) {
      stats += cost;
    }
  });
  return stats;
}

std::vector<dmm::StepCost> replay_step_costs(const Trace& trace,
                                             const SharedLayout& layout) {
  std::vector<dmm::StepCost> costs;
  costs.reserve(trace.steps.size());
  replay(trace, layout, [&](const TraceStep&, const dmm::StepCost& cost) {
    costs.push_back(cost);
  });
  return costs;
}

void write_trace(std::ostream& os, const Trace& trace) {
  os << "WCMT2 " << trace.warp_size << ' ' << trace.logical_words << ' '
     << trace.steps.size() << '\n';
  for (const auto& s : trace.steps) {
    switch (s.kind) {
      case StepKind::barrier:
        os << "B\n";
        continue;
      case StepKind::fill:
        os << "F " << s.fill_base << ' ' << s.fill_count << '\n';
        continue;
      case StepKind::read:
      case StepKind::write:
        break;
    }
    if (s.atomic) {
      os << 'A';
    }
    os << (s.is_write() ? 'W' : 'R');
    for (const auto& [lane, addr] : s.accesses) {
      os << ' ' << lane << ':' << addr;
    }
    os << '\n';
  }
  WCM_CHECK_IO(static_cast<bool>(os), "trace write failed");
}

namespace {

/// Strict full-token unsigned parse; throws wcm::parse_error on anything
/// other than a plain decimal number (so garbage tokens never escape as a
/// raw std::invalid_argument from std::stoul).
std::uint64_t parse_trace_number(const std::string& tok) {
  std::uint64_t value = 0;
  const auto [ptr, err] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  WCM_CHECK_PARSE(err == std::errc() && ptr == tok.data() + tok.size() &&
                      !tok.empty(),
                  "malformed trace number '" + tok + "'");
  return value;
}

/// Parse the `lane:addr ...` tail of an access line into `step`, rejecting
/// duplicate lanes and lanes outside the warp.
void parse_accesses(std::istringstream& ls, const std::string& line,
                    u32 warp_size, TraceStep& step) {
  u64 seen_lanes = 0;
  std::string tok;
  while (ls >> tok) {
    const auto colon = tok.find(':');
    WCM_CHECK_PARSE(colon != std::string::npos,
                    "malformed trace access '" + tok + "'");
    const auto lane =
        static_cast<u32>(parse_trace_number(tok.substr(0, colon)));
    WCM_CHECK_PARSE(lane < warp_size,
                    "lane " + std::to_string(lane) +
                        " outside warp in trace line '" + line + "'");
    WCM_CHECK_PARSE((seen_lanes & (u64{1} << lane)) == 0,
                    "duplicate lane " + std::to_string(lane) +
                        " in trace line '" + line + "'");
    seen_lanes |= u64{1} << lane;
    step.accesses.emplace_back(
        lane,
        static_cast<std::size_t>(parse_trace_number(tok.substr(colon + 1))));
  }
}

}  // namespace

Trace read_trace(std::istream& is) {
  std::string magic;
  Trace trace;
  std::size_t count = 0;
  is >> magic >> trace.warp_size;
  WCM_CHECK_PARSE(static_cast<bool>(is) &&
                      (magic == "WCMT" || magic == "WCMT2"),
                  "not a WCMT trace stream");
  const bool v2 = magic == "WCMT2";
  if (v2) {
    is >> trace.logical_words;
  }
  is >> count;
  WCM_CHECK_PARSE(static_cast<bool>(is), "truncated trace header");
  WCM_CHECK_PARSE(trace.warp_size >= 1 && trace.warp_size <= 64,
                  "trace warp size must be in 1..64");
  WCM_FAILPOINT("trace.read.malformed", parse_error,
                "injected malformed trace stream");
  is.ignore();  // trailing newline
  // Cap the pre-allocation so a corrupt header cannot drive a pathological
  // reserve; the step count is still enforced exactly below.
  trace.steps.reserve(std::min<std::size_t>(count, std::size_t{1} << 20));
  std::string line;
  while (trace.steps.size() < count && std::getline(is, line)) {
    WCM_CHECK_PARSE(!line.empty(), "empty trace line");
    TraceStep step;
    std::istringstream ls(line);
    std::string op;
    ls >> op;
    if (op == "R" || op == "W" || op == "AR" || op == "AW") {
      step.kind = op.back() == 'W' ? StepKind::write : StepKind::read;
      step.atomic = op.size() == 2;
      WCM_CHECK_PARSE(v2 || !step.atomic,
                      "atomic step in a v1 trace line '" + line + "'");
      parse_accesses(ls, line, trace.warp_size, step);
    } else if (op == "B" && v2) {
      step.kind = StepKind::barrier;
      std::string extra;
      WCM_CHECK_PARSE(!(ls >> extra),
                      "trailing tokens on barrier line '" + line + "'");
    } else if (op == "F" && v2) {
      step.kind = StepKind::fill;
      std::string base_tok;
      std::string count_tok;
      std::string extra;
      WCM_CHECK_PARSE(static_cast<bool>(ls >> base_tok >> count_tok) &&
                          !(ls >> extra),
                      "malformed fill line '" + line + "'");
      step.fill_base =
          static_cast<std::size_t>(parse_trace_number(base_tok));
      step.fill_count =
          static_cast<std::size_t>(parse_trace_number(count_tok));
    } else {
      WCM_CHECK_PARSE(false, "malformed trace line '" + line + "'");
    }
    trace.steps.push_back(std::move(step));
  }
  WCM_CHECK_PARSE(trace.steps.size() == count, "truncated trace stream");
  // Anything after the declared steps is corruption, not padding.
  std::string trailing;
  while (std::getline(is, trailing)) {
    WCM_CHECK_PARSE(
        trailing.find_first_not_of(" \t\r") == std::string::npos,
        "trailing garbage after trace steps: '" + trailing + "'");
  }
  return trace;
}

}  // namespace wcm::gpusim
