#include "analyze/passes/verify.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "analyze/symbolic/prove.hpp"
#include "analyze/symbolic/theorems.hpp"
#include "core/assignment.hpp"
#include "core/numbers.hpp"
#include "core/warp_construction.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "sort/cpu_reference.hpp"
#include "sort/engines.hpp"
#include "telemetry/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "workload/inputs.hpp"

namespace wcm::analyze::passes {

namespace {

const char* regime_name(core::ERegime r) {
  switch (r) {
    case core::ERegime::power_of_two:
      return "power_of_two";
    case core::ERegime::shared_factor:
      return "shared_factor";
    case core::ERegime::small:
      return "small";
    case core::ERegime::large:
      return "large";
    case core::ERegime::unsupported:
      return "unsupported";
  }
  return "?";
}

ShapeVerdict verify_shape(const PassManager& pm, const std::string& engine,
                          u32 w, const VerifyOptions& opts) {
  PassContext ctx;
  ctx.engine = engine;
  ctx.opts.w = w;
  ctx.opts.b = opts.b;
  ctx.opts.pad = opts.pad;
  ctx.opts.layout = opts.layout;
  ctx.opts.e_min = opts.e_min;
  ctx.opts.e_max = opts.e_max;
  ctx.opts.ways = opts.ways;
  ctx.opts.digit_bits = opts.digit_bits;
  ctx.opts.any_e = opts.any_e;
  ctx.desc = symbolic::describe_engine(engine, ctx.opts);
  pm.run(ctx);

  ShapeVerdict v;
  v.engine = engine;
  v.w = w;
  v.barriers_uniform = ctx.barriers_uniform;
  v.barriers_checked = ctx.barriers_checked;
  v.defuse_clean = ctx.defuse_clean;
  v.defuse_seeded = ctx.defuse_seeded;
  v.bounds_proved = ctx.bounds_proved;
  v.max_read_bound = ctx.bounds.max_read_bound;
  v.max_write_bound = ctx.bounds.max_write_bound;
  v.ok = ctx.barriers_uniform && ctx.defuse_clean && ctx.bounds_proved &&
         ctx.error_count() == 0;
  v.findings = std::move(ctx.findings);
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("analyze.verify.shapes",
                 {{"engine", engine}, {"ok", v.ok ? "1" : "0"}})
        .add(1);
  }
  return v;
}

/// Sweep the non-coprime (w, E) regimes the Theorem 3/9 constructions
/// exclude and measure how far the coprime closed form overshoots what a
/// sorted-order warp can actually attain there.
std::vector<BreakdownRow> sweep_breakdown(const VerifyOptions& opts) {
  std::vector<BreakdownRow> rows;
  for (const u32 w : opts.ws) {
    if (w < 4 || !is_pow2(w)) {
      continue;  // the closed forms assume pow2 w >= 4; w=2 has no E >= 3
    }
    const u32 e_hi = std::min(opts.e_max, w - 1);
    for (u32 E = 3; E <= e_hi; ++E) {
      const u32 g = std::gcd(w, E);
      if (g <= 1) {
        continue;  // coprime: Theorem 3/9 territory, audited elsewhere
      }
      BreakdownRow row;
      row.w = w;
      row.E = E;
      row.gcd = g;
      row.regime = regime_name(core::classify_e(w, E));
      // The Theorem 3/9 closed forms, applied *outside* their coprime
      // domain on purpose (core::aligned_*_e precondition-check the
      // regime, so the formulas are inlined here): the row records what
      // the coprime analysis would promise at this (w, E).
      if (2 * E < w) {
        row.promised = static_cast<u64>(E) * E;
      } else {
        const u64 r = w - E;
        const u64 e = E;
        row.promised = (e * e + e + 2 * e * r - r * r - r) / 2;
      }
      for (u32 s = 0; s < w; ++s) {
        core::WarpAssignment wa = core::sorted_order_warp(w, E);
        core::optimize_scan_orders(wa, s);
        row.attained =
            std::max<u64>(row.attained, core::evaluate_warp(wa, s).aligned);
      }
      row.step_bound = symbolic::theorem_site_bound(w, E);
      row.breaks_down = row.attained < row.promised;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// The differential grid's block size and engine knobs.
constexpr u32 kDifferentialB = 8;
constexpr sort::EngineKnobs kDifferentialKnobs{.ways = 2, .digit_bits = 1};

/// Run one engine end to end at a concrete cell and count replayed steps
/// that exceed the statically derived bounds.
DifferentialCell run_differential_cell(const sort::Engine& engine, u32 w,
                                       u32 E, gpusim::LayoutKind layout) {
  DifferentialCell cell;
  cell.engine = engine.name;
  cell.w = w;
  cell.E = E;
  cell.layout = layout;

  const auto dev = gpusim::synthetic_device(w);
  sort::SortConfig cfg{E, kDifferentialB, w};
  cfg.layout = layout;
  cfg.validate();
  gpusim::TraceRecorder rec;
  cfg.trace_sink = &rec;

  const std::size_t n = cfg.tile() * 2;
  const auto input = workload::random_permutation(n, 7 + E + w);
  std::vector<dmm::word> out;
  (void)engine.run(input, cfg, dev, kDifferentialKnobs, &out);
  if (out != sort::std_sort(input)) {
    cell.violations = 1;
    cell.ok = false;
    return cell;
  }

  symbolic::ProveOptions popts;
  popts.w = w;
  popts.b = kDifferentialB;
  popts.pad = 0;
  popts.layout = layout;
  popts.e_min = E;
  popts.e_max = E;
  popts.ways = kDifferentialKnobs.ways;
  popts.digit_bits = kDifferentialKnobs.digit_bits;
  const symbolic::EngineReport bounds =
      symbolic::prove_engine(cell.engine, popts);
  cell.max_read_bound = bounds.max_read_bound;
  cell.max_write_bound = bounds.max_write_bound;
  cell.violations = symbolic::certify_trace(rec.take(), bounds).size();
  cell.ok = cell.violations == 0;
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("analyze.verify.differential",
                 {{"engine", cell.engine}, {"ok", cell.ok ? "1" : "0"}})
        .add(1);
  }
  return cell;
}

std::vector<DifferentialCell> run_differential(
    const std::vector<std::string>& engines, const VerifyOptions& opts) {
  // The engines that sort (the phases scan/blocksort/block-merge are
  // exercised inside pairwise) on a grid small enough for CI but wide
  // enough to cross the coprime boundary: both layouts, both non-trivial
  // warp widths, E values hitting gcd(w, E) = 1, 2 and 4.
  const gpusim::LayoutKind layouts[] = {gpusim::LayoutKind::linear,
                                        gpusim::LayoutKind::rotation};
  std::vector<DifferentialCell> cells;
  for (const sort::Engine& engine : sort::engines()) {
    if (!engine.sorts() || std::find(engines.begin(), engines.end(),
                                     engine.name) == engines.end()) {
      continue;
    }
    for (const u32 w : {2u, 4u}) {
      if (std::find(opts.ws.begin(), opts.ws.end(), w) == opts.ws.end()) {
        continue;
      }
      for (const u32 E : {1u, 2u, 3u, 5u}) {
        // An engine whose shape rule rewrites E (bitonic runs at E = 2)
        // would only repeat its cell at the rewritten E.
        const sort::SortConfig cfg{E, kDifferentialB, w};
        if (engine.shape(cfg, cfg.tile() * 2, kDifferentialKnobs).cfg.E !=
            E) {
          continue;
        }
        for (const auto layout : layouts) {
          cells.push_back(run_differential_cell(engine, w, E, layout));
        }
      }
    }
  }
  return cells;
}

std::string json_body(const VerifyReport& r) {
  std::ostringstream os;
  os << "{\"wcm_verify\":1,\"b\":" << r.opts.b << ",\"pad\":" << r.opts.pad
     << ",\"layout\":\"" << gpusim::to_string(r.opts.layout)
     << "\",\"e_min\":" << r.opts.e_min << ",\"e_max\":" << r.opts.e_max
     << ",\"shapes\":[";
  for (std::size_t i = 0; i < r.shapes.size(); ++i) {
    const ShapeVerdict& s = r.shapes[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"engine\":\"" << s.engine << "\",\"w\":" << s.w
       << ",\"barriers_uniform\":" << (s.barriers_uniform ? 1 : 0)
       << ",\"barriers_checked\":" << s.barriers_checked
       << ",\"defuse_clean\":" << (s.defuse_clean ? 1 : 0)
       << ",\"defuse_seeded\":" << (s.defuse_seeded ? 1 : 0)
       << ",\"bounds_proved\":" << (s.bounds_proved ? 1 : 0)
       << ",\"max_read_bound\":" << s.max_read_bound
       << ",\"max_write_bound\":" << s.max_write_bound
       << ",\"ok\":" << (s.ok ? 1 : 0) << ",\"findings\":[";
    for (std::size_t j = 0; j < s.findings.size(); ++j) {
      if (j > 0) {
        os << ',';
      }
      analyze::render_json(os, s.findings[j]);
    }
    os << "]}";
  }
  os << "],\"skipped\":[";
  for (std::size_t i = 0; i < r.skipped.size(); ++i) {
    os << (i > 0 ? "," : "") << '"' << r.skipped[i] << '"';
  }
  os << "],\"breakdown\":[";
  for (std::size_t i = 0; i < r.breakdown.size(); ++i) {
    const BreakdownRow& b = r.breakdown[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"w\":" << b.w << ",\"E\":" << b.E << ",\"gcd\":" << b.gcd
       << ",\"regime\":\"" << b.regime << "\",\"promised\":" << b.promised
       << ",\"attained\":" << b.attained
       << ",\"step_bound\":" << b.step_bound
       << ",\"breaks_down\":" << (b.breaks_down ? 1 : 0) << "}";
  }
  os << "],\"differential\":[";
  for (std::size_t i = 0; i < r.differential.size(); ++i) {
    const DifferentialCell& c = r.differential[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"engine\":\"" << c.engine << "\",\"w\":" << c.w
       << ",\"E\":" << c.E << ",\"layout\":\"" << gpusim::to_string(c.layout)
       << "\",\"max_read_bound\":" << c.max_read_bound
       << ",\"max_write_bound\":" << c.max_write_bound
       << ",\"violations\":" << c.violations
       << ",\"ok\":" << (c.ok ? 1 : 0) << "}";
  }
  os << "],\"proved\":" << (r.proved ? 1 : 0)
     << ",\"differential_ok\":" << (r.differential_ok ? 1 : 0);
  return os.str();
}

}  // namespace

VerifyReport run_verify(const std::vector<std::string>& engines,
                        const VerifyOptions& opts) {
  VerifyReport report;
  report.opts = opts;
  const PassManager pm = PassManager::standard();

  for (const std::string& engine : engines) {
    for (const u32 w : opts.ws) {
      if (opts.b < w) {
        report.skipped.push_back(engine + "@w=" + std::to_string(w) +
                                 ": block smaller than the warp");
        continue;
      }
      if (sort::find_engine(engine).whole_warps && opts.b % w != 0) {
        report.skipped.push_back(engine + "@w=" + std::to_string(w) +
                                 ": block not a multiple of the warp");
        continue;
      }
      report.shapes.push_back(verify_shape(pm, engine, w, opts));
    }
  }

  report.breakdown = sweep_breakdown(opts);
  if (opts.differential) {
    report.differential = run_differential(engines, opts);
  }

  report.proved = !report.shapes.empty();
  for (const ShapeVerdict& s : report.shapes) {
    report.proved = report.proved && s.ok;
  }
  report.differential_ok = true;
  for (const DifferentialCell& c : report.differential) {
    report.differential_ok = report.differential_ok && c.ok;
  }

  report.digest = fnv1a(json_body(report));
  return report;
}

void render_text(std::ostream& os, const VerifyReport& report) {
  for (const ShapeVerdict& s : report.shapes) {
    os << "verify " << s.engine << " w=" << s.w << ": barriers "
       << (s.barriers_uniform ? "uniform" : "DIVERGENT") << " ("
       << s.barriers_checked << "), def-use "
       << (s.defuse_clean ? "clean" : "DIRTY")
       << (s.defuse_seeded ? " [seeded]" : "") << ", bounds "
       << (s.bounds_proved ? "proved" : "UNPROVED") << " (read<="
       << s.max_read_bound << " write<=" << s.max_write_bound << ")"
       << (s.ok ? "" : " FAIL") << '\n';
    for (const Diagnostic& d : s.findings) {
      os << "  ";
      analyze::render_text(os, d);
    }
  }
  for (const std::string& s : report.skipped) {
    os << "skipped " << s << '\n';
  }
  for (const BreakdownRow& b : report.breakdown) {
    os << "breakdown w=" << b.w << " E=" << b.E << " gcd=" << b.gcd << " ("
       << b.regime << "): promised " << b.promised << ", attained "
       << b.attained << ", step bound " << b.step_bound
       << (b.breaks_down ? "  <- closed form no longer worst-case" : "")
       << '\n';
  }
  if (!report.differential.empty()) {
    std::size_t ok = 0;
    for (const DifferentialCell& c : report.differential) {
      ok += c.ok ? 1 : 0;
      if (!c.ok) {
        os << "differential FAIL " << c.engine << " w=" << c.w
           << " E=" << c.E << " layout=" << gpusim::to_string(c.layout)
           << ": " << c.violations << " step(s) exceed the static bound\n";
      }
    }
    os << "differential: " << ok << "/" << report.differential.size()
       << " cells bracketed\n";
  }
  os << (report.proved && report.differential_ok ? "verified"
                                                 : "NOT verified")
     << " [digest fnv1a:" << hex16(report.digest) << "]\n";
}

void render_json(std::ostream& os, const VerifyReport& report) {
  os << json_body(report) << ",\"digest\":\"fnv1a:"
     << hex16(report.digest) << "\"}\n";
}

}  // namespace wcm::analyze::passes
