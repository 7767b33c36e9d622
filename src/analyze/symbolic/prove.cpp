#include "analyze/symbolic/prove.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "sort/engines.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace wcm::analyze::symbolic {

namespace ir = gpusim::ir;

const std::vector<std::string>& all_engines() {
  static const std::vector<std::string> kEngines = [] {
    std::vector<std::string> names;
    for (const sort::Engine& e : sort::engines()) {
      names.emplace_back(e.name);
    }
    return names;
  }();
  return kEngines;
}

namespace {

/// Re-range the describer's symbolic E (and the dependent inner step s) to
/// the options' declared range; `--any-E` drops the odd congruence.
void apply_e_range(ir::KernelDesc& desc, const ProveOptions& opts) {
  const int e = desc.find_symbol("E");
  if (e < 0) {
    return;  // bitonic: E = 2 is baked into the shape
  }
  ir::Symbol& sym = desc.symbols[static_cast<std::size_t>(e)];
  const u32 e_max = opts.effective_e_max();
  WCM_EXPECTS(opts.e_min >= 1 && opts.e_min <= e_max,
              "need 1 <= E-min <= E-max");
  sym.lo = opts.e_min;
  sym.hi = e_max;
  if (opts.e_min == e_max) {
    sym.mod = 1;  // exact value: interval alone carries everything
    sym.rem = 0;
  } else if (opts.any_e) {
    sym.mod = 1;
    sym.rem = 0;
  } else {
    sym.mod = 2;
    sym.rem = 1;
    WCM_EXPECTS(opts.e_min % 2 == 1 || opts.e_min < e_max,
                "empty odd E range");
  }
  const int s = desc.find_symbol("s");
  if (s >= 0) {
    // s is the inner step in [0, E): follow the declared E range exactly.
    // The describer's static hi (w - 2) assumes E <= w - 1 and silently
    // under-covers the enumeration sweep when the proof range pushes E
    // past the warp width (e.g. the w = 2 cross-check grid).
    ir::Symbol& inner = desc.symbols[static_cast<std::size_t>(s)];
    inner.hi = static_cast<i64>(e_max) - 1;
    inner.lo = 0;
  }
}

/// The JSON body everything hashes and renders: deterministic, integers
/// and strings only (no floats), no digest field.
std::string json_body(const ProveReport& report) {
  std::ostringstream os;
  os << "{\"wcm_prove\":1,\"engines\":[";
  for (std::size_t i = 0; i < report.engines.size(); ++i) {
    const EngineReport& e = report.engines[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"engine\":\"" << e.engine << "\",\"w\":" << e.w
       << ",\"b\":" << e.b << ",\"pad\":" << e.pad << ",\"layout\":\""
       << gpusim::to_string(e.layout) << "\",\"e_min\":" << e.e_min
       << ",\"e_max\":" << e.e_max
       << ",\"max_read_bound\":" << e.max_read_bound
       << ",\"max_write_bound\":" << e.max_write_bound
       << ",\"all_proved\":" << (e.all_proved ? 1 : 0) << ",\"groups\":[";
    for (std::size_t g = 0; g < e.groups.size(); ++g) {
      const GroupReport& gr = e.groups[g];
      if (g > 0) {
        os << ',';
      }
      os << "{\"name\":";
      json::write_string(os, gr.name);
      os << ",\"kind\":\"" << gr.kind << "\",\"atomic\":"
         << (gr.atomic ? 1 : 0)
         << ",\"theorem_site\":" << (gr.theorem_site ? 1 : 0)
         << ",\"pattern\":";
      json::write_string(os, gr.pattern);
      os << ",\"method\":\"" << gr.bound.method
         << "\",\"degree\":" << gr.bound.degree
         << ",\"free\":" << (gr.bound.free ? 1 : 0)
         << ",\"exact\":" << (gr.bound.exact ? 1 : 0) << ",\"detail\":";
      json::write_string(os, gr.bound.detail);
      os << ",\"divergence\":";
      json::write_string(os, gr.bound.divergence);
      os << "}";
    }
    os << "]}";
  }
  os << "],\"theorems\":[";
  for (std::size_t i = 0; i < report.theorems.size(); ++i) {
    const TheoremInstance& t = report.theorems[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"w\":" << t.w << ",\"E\":" << t.E << ",\"regime\":\""
       << (t.small ? "small" : "large")
       << "\",\"aligned_closed\":" << t.aligned_closed
       << ",\"aligned_static\":" << t.aligned_static
       << ",\"aligned_dynamic\":" << t.aligned_dynamic
       << ",\"step_bound\":" << t.step_bound
       << ",\"max_step_degree\":" << t.max_step_degree
       << ",\"ok\":" << (t.ok ? 1 : 0) << ",\"note\":";
    json::write_string(os, t.note);
    os << "}";
  }
  os << "],\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    analyze::render_json(os, report.findings[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace

ir::KernelDesc describe_engine(const std::string& name,
                               const ProveOptions& opts) {
  ir::KernelDesc desc = sort::find_engine(name).describe(
      opts.w, opts.b, opts.pad,
      {.ways = opts.ways, .digit_bits = opts.digit_bits});
  // The bank permutation is a property of the machine the engine is
  // proved on, not of the describer: apply it centrally so every engine
  // is provable under every layout.
  desc.layout = opts.layout;
  apply_e_range(desc, opts);
  return desc;
}

EngineReport prove_engine(const std::string& name, const ProveOptions& opts) {
  const ir::KernelDesc desc = describe_engine(name, opts);
  EngineReport report;
  report.engine = name;
  report.w = desc.w;
  report.b = desc.b;
  report.pad = desc.pad;
  report.layout = desc.layout;
  report.e_min = opts.e_min;
  report.e_max = opts.effective_e_max();
  for (const ir::StepGroup& group : desc.groups) {
    GroupReport gr;
    gr.name = group.name;
    gr.kind = ir::to_string(group.kind);
    gr.atomic = group.atomic;
    gr.theorem_site = group.theorem_site;
    gr.pattern = ir::to_string(group.pattern, desc);
    gr.bound = bound_group(desc, group);
    if (group.kind == ir::GroupKind::read) {
      report.max_read_bound = std::max(report.max_read_bound,
                                       gr.bound.degree);
    } else if (group.kind == ir::GroupKind::write) {
      report.max_write_bound = std::max(report.max_write_bound,
                                        gr.bound.degree);
    }
    if (gr.bound.method == "trivial") {
      report.all_proved = false;
    }
    report.groups.push_back(std::move(gr));
  }
  return report;
}

ProveReport prove(const std::vector<std::string>& engines,
                  const ProveOptions& opts) {
  ProveReport report;
  for (const std::string& name : engines) {
    report.engines.push_back(prove_engine(name, opts));
  }

  // Findings: unproved groups and model divergences.
  for (const EngineReport& e : report.engines) {
    for (std::size_t g = 0; g < e.groups.size(); ++g) {
      const GroupReport& gr = e.groups[g];
      if (gr.bound.method == "trivial") {
        Diagnostic d;
        d.severity = Severity::error;
        d.rule = Rule::unproved_access;
        d.message = e.engine + " group '" + gr.name +
                    "': no proof method bounded this pattern (trivial bound " +
                    std::to_string(gr.bound.degree) + ")";
        report.findings.push_back(std::move(d));
      }
      if (!gr.bound.divergence.empty()) {
        Diagnostic d;
        d.severity = Severity::error;
        d.rule = Rule::symbolic_divergence;
        d.message = e.engine + " group '" + gr.name +
                    "': " + gr.bound.divergence;
        report.findings.push_back(std::move(d));
      }
    }
  }

  // Theorem cross-check instances over every co-prime E in range (the
  // constructions need 3 <= E < w and odd E; even E are skipped by the
  // co-primality filter since w is a power of two).
  const u32 e_max = std::min(opts.effective_e_max(), opts.w - 1);
  if (opts.e_min <= e_max) {
    report.theorems = check_theorems(opts.w, opts.e_min, e_max);
  }
  for (const TheoremInstance& t : report.theorems) {
    if (!t.ok) {
      Diagnostic d;
      d.severity = Severity::error;
      d.rule = Rule::theorem_divergence;
      d.message = "theorem instance (w=" + std::to_string(t.w) +
                  ", E=" + std::to_string(t.E) + ", " +
                  (t.small ? "Theorem 3" : "Theorem 9") + "): " + t.note;
      report.findings.push_back(std::move(d));
    }
  }

  report.digest = fnv1a(json_body(report));
  return report;
}

void render_text(std::ostream& os, const ProveReport& report) {
  for (const EngineReport& e : report.engines) {
    os << "engine " << e.engine << " (w=" << e.w << " b=" << e.b
       << " pad=" << e.pad << " layout=" << gpusim::to_string(e.layout)
       << " E=" << e.e_min << ".." << e.e_max << ")\n";
    for (const GroupReport& gr : e.groups) {
      if (gr.bound.method == "none") {
        continue;  // barriers and fills carry no bound
      }
      os << "  " << gr.kind << (gr.atomic ? " atomic" : "") << " '"
         << gr.name << "'";
      if (gr.theorem_site) {
        os << " [theorem site]";
      }
      os << ": degree <= " << gr.bound.degree
         << (gr.bound.free ? " (conflict-free)" : "")
         << (gr.bound.exact ? " (exact)" : "") << " via " << gr.bound.method
         << "\n    " << gr.pattern << "\n";
    }
    os << "  max step bound: read " << e.max_read_bound << ", write "
       << e.max_write_bound << "\n";
  }
  if (!report.theorems.empty()) {
    os << "theorem instances (w=" << report.theorems.front().w << "):\n";
    for (const TheoremInstance& t : report.theorems) {
      os << "  E=" << t.E << " " << (t.small ? "Thm3" : "Thm9")
         << ": aligned closed=" << t.aligned_closed
         << " static=" << t.aligned_static << " replay=" << t.aligned_dynamic
         << ", step degree " << t.max_step_degree << " <= bound "
         << t.step_bound << (t.ok ? " ok" : " FAIL") << "\n";
    }
  }
  for (const Diagnostic& d : report.findings) {
    analyze::render_text(os, d);
  }
  os << (report.findings.empty() ? "clean" : "findings: ")
     << (report.findings.empty() ? std::string()
                                 : std::to_string(report.findings.size()))
     << " [digest fnv1a:" << hex16(report.digest) << "]\n";
}

void render_json(std::ostream& os, const ProveReport& report) {
  os << json_body(report) << ",\"digest\":\"fnv1a:"
     << hex16(report.digest) << "\"}\n";
}

void append_findings(ProveReport& report, std::vector<Diagnostic> findings) {
  for (Diagnostic& d : findings) {
    report.findings.push_back(std::move(d));
  }
  report.digest = fnv1a(json_body(report));
}

std::vector<Diagnostic> certify_trace(const gpusim::Trace& trace,
                                      const EngineReport& report) {
  std::vector<Diagnostic> findings;
  const gpusim::SharedLayout layout{report.w, report.pad, report.layout};
  WCM_EXPECTS(trace.warp_size == report.w,
              "trace warp size does not match the proved shape");
  const std::vector<dmm::StepCost> costs =
      gpusim::replay_step_costs(trace, layout);
  WCM_EXPECTS(costs.size() == trace.steps.size(),
              "replay must price every step");
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    const gpusim::TraceStep& step = trace.steps[i];
    if (!step.is_access()) {
      continue;
    }
    const u64 bound =
        step.is_write() ? report.max_write_bound : report.max_read_bound;
    const u64 degree = costs[i].max_bank_degree;
    if (degree > bound) {
      Diagnostic d;
      d.severity = Severity::error;
      d.rule = Rule::symbolic_divergence;
      d.step = i;
      for (const auto& [lane, addr] : step.accesses) {
        d.lanes.push_back(lane);
      }
      std::sort(d.lanes.begin(), d.lanes.end());
      std::ostringstream msg;
      msg << report.engine << ": replayed worst-bank degree " << degree
          << " exceeds the symbolic " << (step.is_write() ? "write" : "read")
          << " bound " << bound << " (pad " << report.pad << ", layout "
          << gpusim::to_string(report.layout) << ")";
      d.message = msg.str();
      findings.push_back(std::move(d));
    }
  }
  return findings;
}

}  // namespace wcm::analyze::symbolic
