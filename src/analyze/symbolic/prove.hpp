#pragma once
// The `wcmgen prove` engine: derives — without executing any
// trace — per-step bank-conflict-degree bounds for every declared step
// group of every sort engine, valid for all parameter valuations in a
// declared range, runs the Theorem 3/9 cross-check instances, and renders
// the result in `wcmgen analyze`'s text/JSON diagnostic format.
//
// Findings (analyze::Diagnostic, rules documented in docs/LINT.md):
//   unproved-access      a step group no proof method could bound
//   symbolic-divergence  symbolic bound vs stride-gcd/replayed-StepCost
//                        disagreement (a conflict-model bug)
//   theorem-divergence   a Theorem 3/9 instance failed its cross-check
//
// certify_trace() is the dynamic side: every read/write step of a recorded
// trace, replayed through the DMM, must cost no more than the engine's
// derived bound — the differential fuzzer runs it on every trial.

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "analyze/symbolic/domain.hpp"
#include "analyze/symbolic/theorems.hpp"
#include "gpusim/access_ir.hpp"
#include "gpusim/trace.hpp"

namespace wcm::analyze::symbolic {

struct ProveOptions {
  u32 w = 32;
  u32 b = 64;
  u32 pad = 0;
  /// Shared-memory bank permutation the engines are proved under.
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  u32 e_min = 3;
  u32 e_max = 0;  ///< 0: defaults to w - 1
  u32 ways = 4;        ///< multiway fan-in
  u32 digit_bits = 4;  ///< radix digit width
  bool any_e = false;  ///< drop the E-odd congruence from the range
  bool json = false;

  [[nodiscard]] u32 effective_e_max() const noexcept {
    return e_max == 0 ? w - 1 : e_max;
  }
};

/// One step group's derived bound plus its rendered IR.
struct GroupReport {
  std::string name;
  std::string kind;  ///< "read" | "write" | "barrier" | "fill"
  bool atomic = false;
  bool theorem_site = false;
  std::string pattern;  ///< to_string of the access pattern
  StepBound bound;
};

struct EngineReport {
  std::string engine;
  u32 w = 0;
  u32 b = 0;
  u32 pad = 0;
  gpusim::LayoutKind layout = gpusim::LayoutKind::linear;
  u32 e_min = 0;
  u32 e_max = 0;
  std::vector<GroupReport> groups;
  u64 max_read_bound = 0;   ///< max degree over read/atomic-read groups
  u64 max_write_bound = 0;  ///< max degree over write groups
  bool all_proved = true;   ///< no group fell back to the trivial bound
};

struct ProveReport {
  std::vector<EngineReport> engines;
  std::vector<TheoremInstance> theorems;
  std::vector<Diagnostic> findings;
  u64 digest = 0;  ///< fnv1a over the rendered JSON body
};

/// The canonical engine list (`--engine all`): the names of the engine
/// table (sort/engines.hpp), in table order.
[[nodiscard]] const std::vector<std::string>& all_engines();

/// Lift one engine into the IR with the options' E range applied.
[[nodiscard]] gpusim::ir::KernelDesc describe_engine(const std::string& name,
                                                     const ProveOptions& opts);

/// Bound every step group of one engine.
[[nodiscard]] EngineReport prove_engine(const std::string& name,
                                        const ProveOptions& opts);

/// Prove a set of engines, run the theorem instances over the co-prime E
/// in range, and collect findings.  Throws wcm::parse_error on an unknown
/// engine name or an invalid shape.
[[nodiscard]] ProveReport prove(const std::vector<std::string>& engines,
                                const ProveOptions& opts);

void render_text(std::ostream& os, const ProveReport& report);
void render_json(std::ostream& os, const ProveReport& report);

/// Fold externally-derived findings (certify_trace results) into a report
/// and refresh its digest.
void append_findings(ProveReport& report, std::vector<Diagnostic> findings);

/// Dynamic certification: replay the trace's step costs under the
/// (w, pad, layout) shape the report was proved for and flag every read/write
/// step whose worst-bank degree exceeds the engine's derived bound.
[[nodiscard]] std::vector<Diagnostic> certify_trace(
    const gpusim::Trace& trace, const EngineReport& report);

}  // namespace wcm::analyze::symbolic
