#include "analyze/symbolic/certify.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "dmm/access.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace wcm::analyze::symbolic {

namespace ir = gpusim::ir;

namespace {

/// Price concrete lane addresses as one warp-wide read through
/// dmm::analyze_step and return the worst per-bank distinct-address count.
/// Addresses are shifted by a multiple of w² when negative — a w²-aligned
/// shift keeps both row residue and column, hence every layout's bank,
/// invariant.  A write witness with duplicate addresses from distinct
/// lanes is a CREW race, so every witness is priced as a read (bank
/// pricing is identical).
u64 replay_degree(const gpusim::SharedLayout& layout,
                  const std::vector<i64>& addrs) {
  if (addrs.empty()) {
    return 0;
  }
  const i64 w2 = static_cast<i64>(layout.w) * layout.w;
  const i64 min = *std::min_element(addrs.begin(), addrs.end());
  const i64 shift =
      min < 0 ? static_cast<i64>(
                    ceil_div(static_cast<u64>(-min), static_cast<u64>(w2)) *
                    static_cast<u64>(w2))
              : 0;
  std::vector<dmm::Request> step;
  for (u32 lane = 0; lane < layout.w && lane < addrs.size(); ++lane) {
    const auto addr = static_cast<std::size_t>(addrs[lane] + shift);
    step.push_back({lane, layout.physical(addr), dmm::Op::read, 0});
  }
  return dmm::analyze_step(step, layout.w).max_bank_degree;
}

/// Witness valuation for a window group: maximize the instantiated span
/// greedily (positive span coefficient → symbol high, negative → low),
/// honoring upper_sym chains and congruences in declaration order.
Valuation window_valuation(const ir::KernelDesc& desc,
                           const ir::StepGroup& group) {
  std::map<int, i64> span_coeff;
  for (const auto& [idx, coeff] : group.pattern.span.terms) {
    span_coeff[idx] = coeff;
  }
  Valuation val(desc.symbols.size(), 0);
  for (std::size_t i = 0; i < desc.symbols.size(); ++i) {
    const ir::Symbol& s = desc.symbols[i];
    if (s.role != ir::SymRole::parameter) {
      continue;  // warp shifts stay 0 (asserted interval-free by the prover)
    }
    i64 hi = s.hi;
    if (s.upper_sym >= 0) {
      hi = std::min<i64>(
          hi, val[static_cast<std::size_t>(s.upper_sym)] - 1);
    }
    const i64 lo = std::min<i64>(s.lo, hi);
    const auto it = span_coeff.find(static_cast<int>(i));
    i64 want = (it != span_coeff.end() && it->second < 0) ? lo : hi;
    if (s.mod > 1) {
      const i64 m = static_cast<i64>(s.mod);
      while (want > lo && mod_floor(want, m) != mod_floor(s.rem, m)) {
        --want;
      }
    }
    val[i] = std::max(want, lo);
  }
  return val;
}

/// Witness addresses inside a window instantiation: bucket the span's
/// logical addresses (based at 0 — one contiguous range is an admissible
/// region shape) by layout bank and aim every active lane at the fullest
/// bucket.
std::vector<i64> window_witness(const ir::KernelDesc& desc,
                                const ir::StepGroup& group,
                                const Valuation& val) {
  const gpusim::SharedLayout layout{desc.w, desc.pad, desc.layout};
  i64 span = group.pattern.span.c;
  for (const auto& [idx, coeff] : group.pattern.span.terms) {
    span += coeff * val[static_cast<std::size_t>(idx)];
  }
  span = std::max<i64>(span, 0);
  std::map<u32, std::vector<i64>> buckets;
  for (i64 a = 0; a < span; ++a) {
    buckets[layout.bank(static_cast<std::size_t>(a))].push_back(a);
  }
  std::vector<i64> best;
  for (const auto& [bank, addrs] : buckets) {
    if (addrs.size() > best.size()) {
      best = addrs;
    }
  }
  if (best.size() > group.pattern.active) {
    best.resize(group.pattern.active);
  }
  return best;
}

void append_counterexample(std::vector<CertCounterexample>& out,
                           const ir::KernelDesc& desc,
                           const ir::StepGroup& group, u32 b, u32 pad,
                           u64 bound_degree) {
  CertCounterexample ce;
  ce.b = b;
  ce.pad = pad;
  ce.group = group.name;
  ce.kind = ir::to_string(group.kind);
  ce.pattern = ir::to_string(group.pattern, desc);
  ce.bound_degree = bound_degree;
  const gpusim::SharedLayout layout{desc.w, desc.pad, desc.layout};
  Valuation val;
  if (group.pattern.kind == ir::PatternKind::pieces) {
    const EnumWorst worst = enumerate_worst(desc, group);
    if (!worst.feasible) {
      out.push_back(std::move(ce));  // unconfirmed refutation
      return;
    }
    val = worst.valuation;
    ce.addresses = instantiate_addresses(desc, group, val);
  } else {
    val = window_valuation(desc, group);
    ce.addresses = window_witness(desc, group, val);
  }
  for (std::size_t i = 0; i < desc.symbols.size(); ++i) {
    ce.valuation.emplace_back(desc.symbols[i].name, val[i]);
  }
  ce.witness_degree = exact_degree(layout, ce.addresses);
  ce.replayed_degree = replay_degree(layout, ce.addresses);
  ce.confirmed =
      ce.replayed_degree == ce.witness_degree && ce.replayed_degree > 1;
  out.push_back(std::move(ce));
}

/// Deterministic JSON body (integers and strings only), hashed into the
/// certificate digest; the digest field itself is appended by render_json.
std::string json_body(const Certificate& cert) {
  std::ostringstream os;
  os << "{\"wcm_certify\":1,\"engine\":\"" << cert.engine
     << "\",\"w\":" << cert.w << ",\"layout\":\""
     << gpusim::to_string(cert.layout) << "\",\"e_min\":" << cert.e_min
     << ",\"e_max\":" << cert.e_max << ",\"any_e\":" << (cert.any_e ? 1 : 0)
     << ",\"cells\":[";
  for (std::size_t i = 0; i < cert.cells.size(); ++i) {
    const CertCell& cell = cert.cells[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"b\":" << cell.b << ",\"pad\":" << cell.pad
       << ",\"max_read_bound\":" << cell.report.max_read_bound
       << ",\"max_write_bound\":" << cell.report.max_write_bound
       << ",\"all_proved\":" << (cell.report.all_proved ? 1 : 0)
       << ",\"groups\":[";
    bool first = true;
    for (const GroupReport& gr : cell.report.groups) {
      if (gr.bound.method == "none") {
        continue;  // barriers and fills carry no fact
      }
      if (!first) {
        os << ',';
      }
      first = false;
      os << "{\"name\":";
      json::write_string(os, gr.name);
      os << ",\"kind\":\"" << gr.kind
         << "\",\"theorem_site\":" << (gr.theorem_site ? 1 : 0)
         << ",\"method\":\"" << gr.bound.method
         << "\",\"degree\":" << gr.bound.degree
         << ",\"free\":" << (gr.bound.free ? 1 : 0)
         << ",\"exact\":" << (gr.bound.exact ? 1 : 0) << ",\"detail\":";
      json::write_string(os, gr.bound.detail);
      os << "}";
    }
    os << "]}";
  }
  os << "],\"counterexamples\":[";
  for (std::size_t i = 0; i < cert.counterexamples.size(); ++i) {
    const CertCounterexample& ce = cert.counterexamples[i];
    if (i > 0) {
      os << ',';
    }
    os << "{\"b\":" << ce.b << ",\"pad\":" << ce.pad << ",\"group\":";
    json::write_string(os, ce.group);
    os << ",\"kind\":\"" << ce.kind << "\",\"pattern\":";
    json::write_string(os, ce.pattern);
    os << ",\"valuation\":[";
    for (std::size_t v = 0; v < ce.valuation.size(); ++v) {
      if (v > 0) {
        os << ',';
      }
      os << "{\"sym\":";
      json::write_string(os, ce.valuation[v].first);
      os << ",\"value\":" << ce.valuation[v].second << "}";
    }
    os << "],\"addresses\":[";
    for (std::size_t a = 0; a < ce.addresses.size(); ++a) {
      if (a > 0) {
        os << ',';
      }
      os << ce.addresses[a];
    }
    os << "],\"bound_degree\":" << ce.bound_degree
       << ",\"witness_degree\":" << ce.witness_degree
       << ",\"replayed_degree\":" << ce.replayed_degree
       << ",\"confirmed\":" << (ce.confirmed ? 1 : 0) << "}";
  }
  os << "],\"verdict\":\"" << (cert.certified ? "certified" : "refuted")
     << "\"";
  return os.str();
}

}  // namespace

Certificate certify_engine(const std::string& engine,
                           const CertifyOptions& opts) {
  WCM_EXPECTS(!opts.bs.empty() && !opts.pads.empty(),
              "certification grid must not be empty");
  Certificate cert;
  cert.engine = engine;
  cert.w = opts.w;
  cert.layout = opts.layout;
  cert.e_min = opts.e_min;
  cert.any_e = opts.any_e;
  cert.certified = true;

  for (const u32 b : opts.bs) {
    for (const u32 pad : opts.pads) {
      ProveOptions popts;
      popts.w = opts.w;
      popts.b = b;
      popts.pad = pad;
      popts.layout = opts.layout;
      popts.e_min = opts.e_min;
      popts.e_max = opts.e_max;
      popts.ways = opts.ways;
      popts.digit_bits = opts.digit_bits;
      popts.any_e = opts.any_e;
      cert.e_max = popts.effective_e_max();

      CertCell cell;
      cell.b = b;
      cell.pad = pad;
      cell.report = prove_engine(engine, popts);
      const ir::KernelDesc desc = describe_engine(engine, popts);
      WCM_EXPECTS(desc.groups.size() == cell.report.groups.size(),
                  "report must cover every IR statement");
      for (std::size_t g = 0; g < desc.groups.size(); ++g) {
        const GroupReport& gr = cell.report.groups[g];
        if (gr.bound.method == "none" || gr.bound.free) {
          continue;
        }
        cert.certified = false;
        append_counterexample(cert.counterexamples, desc, desc.groups[g], b,
                              pad, gr.bound.degree);
      }
      if (!cell.report.all_proved) {
        cert.certified = false;
      }
      cert.cells.push_back(std::move(cell));
    }
  }

  cert.digest = fnv1a(json_body(cert));
  return cert;
}

void render_text(std::ostream& os, const Certificate& cert) {
  os << "certify " << cert.engine << " (w=" << cert.w << " layout="
     << gpusim::to_string(cert.layout) << " E=" << cert.e_min << ".."
     << cert.e_max << (cert.any_e ? " any-E" : "") << ")\n";
  for (const CertCell& cell : cert.cells) {
    os << "  cell b=" << cell.b << " pad=" << cell.pad << ": ";
    u64 unfree = 0;
    for (const GroupReport& gr : cell.report.groups) {
      if (gr.bound.method != "none" && !gr.bound.free) {
        ++unfree;
      }
    }
    if (unfree == 0 && cell.report.all_proved) {
      os << "all " << cell.report.groups.size()
         << " statements proved conflict-free\n";
    } else {
      os << unfree << " statement(s) not conflict-free"
         << (cell.report.all_proved ? "" : " (and unproved patterns remain)")
         << "\n";
    }
    for (const GroupReport& gr : cell.report.groups) {
      if (gr.bound.method == "none") {
        continue;
      }
      os << "    " << gr.kind << " '" << gr.name << "': degree <= "
         << gr.bound.degree << (gr.bound.free ? " (free)" : "") << " via "
         << gr.bound.method << "\n";
    }
  }
  for (const CertCounterexample& ce : cert.counterexamples) {
    os << "  counterexample b=" << ce.b << " pad=" << ce.pad << " " << ce.kind
       << " '" << ce.group << "': bound " << ce.bound_degree << ", witness "
       << ce.witness_degree << ", replay " << ce.replayed_degree
       << (ce.confirmed ? " (confirmed)" : " (UNCONFIRMED)") << "\n    at";
    for (const auto& [sym, value] : ce.valuation) {
      os << " " << sym << "=" << value;
    }
    os << "\n";
  }
  os << "verdict: " << (cert.certified ? "certified" : "refuted")
     << " [digest fnv1a:" << hex16(cert.digest) << "]\n";
}

void render_json(std::ostream& os, const Certificate& cert) {
  os << json_body(cert) << ",\"digest\":\"fnv1a:" << hex16(cert.digest)
     << "\"}\n";
}

}  // namespace wcm::analyze::symbolic
