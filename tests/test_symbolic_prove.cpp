// End-to-end tests of the symbolic prover (analyze/symbolic/prove): the
// Theorem 3/9 cross-check instances over every co-prime (w, E), clean
// proofs for all seven engines under plain and padded layouts, the
// static-vs-dynamic certification of recorded traces, and the JSON
// report's digest determinism.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/symbolic/prove.hpp"
#include "analyze/symbolic/theorems.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "sort/engines.hpp"
#include "sort/pairwise_sort.hpp"
#include "util/error.hpp"

namespace wcm::analyze::symbolic {
namespace {

// Every co-prime odd E in [3, w) must reproduce its closed form three
// independent ways and respect the symbolic merge-read bound.
TEST(Theorems, AllCoprimeInstancesCheckOut) {
  for (const u32 w : {16u, 32u, 64u}) {
    const auto instances = check_theorems(w, 3, w - 1);
    ASSERT_FALSE(instances.empty()) << "w=" << w;
    for (const auto& inst : instances) {
      EXPECT_TRUE(inst.ok) << "w=" << inst.w << " E=" << inst.E << ": "
                           << inst.note;
      EXPECT_EQ(std::gcd(inst.w, inst.E), 1u);
      EXPECT_EQ(inst.aligned_static, inst.aligned_closed);
      EXPECT_EQ(inst.aligned_dynamic, inst.aligned_closed);
      EXPECT_LE(inst.max_step_degree, inst.step_bound);
      if (inst.small) {
        // Theorem 3: E^2 aligned elements, per-step degree beta_2 = E.
        EXPECT_EQ(inst.aligned_closed,
                  static_cast<u64>(inst.E) * inst.E);
      } else {
        // Theorem 9: (E^2 + E + 2Er - r^2 - r) / 2 with r = w - E.
        const u64 e = inst.E;
        const u64 r = inst.w - inst.E;
        EXPECT_EQ(inst.aligned_closed,
                  (e * e + e + 2 * e * r - r * r - r) / 2);
      }
    }
  }
}

TEST(Theorems, SweepSkipsSharedFactorE) {
  for (const auto& inst : check_theorems(32, 3, 31)) {
    EXPECT_NE(inst.E % 2, 0u);  // even E shares a factor with w = 32
  }
}

TEST(Prove, AllEnginesProveCleanPlainAndPadded) {
  for (const u32 pad : {0u, 1u}) {
    ProveOptions opts;
    opts.pad = pad;
    const ProveReport report = prove(all_engines(), opts);
    EXPECT_TRUE(report.findings.empty()) << [&] {
      std::ostringstream os;
      render_text(os, report);
      return os.str();
    }();
    ASSERT_EQ(report.engines.size(), all_engines().size());
    for (const auto& eng : report.engines) {
      EXPECT_TRUE(eng.all_proved) << eng.engine << " pad=" << pad;
      EXPECT_GE(eng.max_read_bound, 1u) << eng.engine;
      EXPECT_GE(eng.max_write_bound, 1u) << eng.engine;
      for (const auto& group : eng.groups) {
        EXPECT_NE(group.bound.method, "trivial")
            << eng.engine << " / " << group.name;
        EXPECT_TRUE(group.bound.divergence.empty())
            << eng.engine << " / " << group.name << ": "
            << group.bound.divergence;
      }
    }
    EXPECT_FALSE(report.theorems.empty());
  }
}

TEST(Prove, PairwiseTheoremSiteBoundIsE) {
  // At an exact E the pairwise merge-read window bound must be small: the
  // per-step degree Theorem 3 calls beta_2 = E (plus the straddle of the
  // second range).
  ProveOptions opts;
  opts.e_min = 5;
  opts.e_max = 5;
  const EngineReport eng = prove_engine("pairwise", opts);
  bool saw_site = false;
  for (const auto& group : eng.groups) {
    if (!group.theorem_site) {
      continue;
    }
    saw_site = true;
    EXPECT_LE(group.bound.degree, 6u) << group.name;
  }
  EXPECT_TRUE(saw_site);
}

TEST(Prove, UnknownEngineThrowsParseError) {
  ProveOptions opts;
  EXPECT_THROW((void)prove_engine("quicksort", opts), parse_error);
  EXPECT_THROW((void)prove({"pairwise", "quicksort"}, opts), parse_error);
}

TEST(EngineTable, NamesAreAllEnginesInOrder) {
  std::vector<std::string> names;
  for (const sort::Engine& engine : sort::engines()) {
    names.emplace_back(engine.name);
  }
  EXPECT_EQ(names, all_engines());
}

TEST(EngineTable, UnknownNameThrowsListingEveryRow) {
  try {
    (void)sort::find_engine("quicksort");
    FAIL() << "find_engine accepted an unknown name";
  } catch (const parse_error& e) {
    const std::string message = e.what();
    for (const sort::Engine& engine : sort::engines()) {
      EXPECT_NE(message.find(std::string(engine.name)), std::string::npos)
          << engine.name << " missing from: " << message;
    }
  }
}

TEST(Prove, JsonReportIsDeterministicAndDigested) {
  ProveOptions opts;
  opts.e_min = 3;
  opts.e_max = 9;
  const ProveReport report = prove({"pairwise", "bitonic"}, opts);
  std::ostringstream a;
  std::ostringstream b;
  render_json(a, report);
  render_json(b, report);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"digest\":\"fnv1a:"), std::string::npos);
  EXPECT_NE(report.digest, 0u);

  std::ostringstream text;
  render_text(text, report);
  EXPECT_NE(text.str().find("fnv1a:"), std::string::npos);
}

TEST(Prove, AppendFindingsRefreshesDigest) {
  ProveOptions opts;
  ProveReport report = prove({"pairwise"}, opts);
  const u64 before = report.digest;
  Diagnostic d;
  d.rule = Rule::symbolic_divergence;
  d.message = "synthetic";
  append_findings(report, {d});
  EXPECT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.digest, before);
}

// Dynamic side: a real recorded pairwise trace must certify against the
// bounds proved for its exact configuration.
TEST(Certify, RecordedPairwiseTraceIsWithinBounds) {
  sort::SortConfig cfg{5, 64, 32};
  gpusim::TraceRecorder rec;
  cfg.trace_sink = &rec;
  std::vector<dmm::word> input(cfg.tile() * 2);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<dmm::word>((input.size() - i) * 7 % 97);
  }
  std::vector<dmm::word> out;
  (void)sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000(),
                                  sort::MergeSortLibrary::thrust, &out);
  const gpusim::Trace trace = rec.take();
  ASSERT_GT(trace.access_steps(), 0u);

  ProveOptions opts;
  opts.w = cfg.w;
  opts.b = cfg.b;
  opts.e_min = cfg.E;
  opts.e_max = cfg.E;
  const EngineReport eng = prove_engine("pairwise", opts);
  const auto findings = certify_trace(trace, eng);
  EXPECT_TRUE(findings.empty()) << findings.size() << " violations, first: "
                                << findings.front().message;
}

// And the negative: a fabricated stride-w store (every lane in bank 0)
// costs w, far beyond the proved write bound — certify must flag it.
// (The read side is window-capped at w lanes, so writes are the sharp
// bound for this engine.)
TEST(Certify, OverBoundStepIsFlaggedAsSymbolicDivergence) {
  ProveOptions opts;
  const EngineReport eng = prove_engine("pairwise", opts);
  ASSERT_LT(eng.max_write_bound, 32u);

  gpusim::Trace trace;
  trace.warp_size = 32;
  trace.logical_words = 32u * 32u;
  gpusim::TraceStep step;
  step.kind = gpusim::StepKind::write;
  for (u32 lane = 0; lane < 32; ++lane) {
    step.accesses.emplace_back(lane, static_cast<std::size_t>(lane) * 32u);
  }
  trace.steps.push_back(step);

  const auto findings = certify_trace(trace, eng);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, Rule::symbolic_divergence);
}

}  // namespace
}  // namespace wcm::analyze::symbolic
