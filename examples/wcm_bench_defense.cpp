// wcm-bench-defense — the price of immunity: defended vs undefended
// engines under random and Theorem 3/9 adversarial inputs.
//
//   wcm-bench-defense [--out BENCH_defense.json]
//
// Runs every (engine, layout, pad) defense variant over both input
// classes on the simulated device and records, per cell, the replay
// count (the conflict degree the DMM actually serialized), conflicts
// per element, beta_2 over the theorem-relevant merge reads, and the
// modeled time.  All metrics are simulated, so the output is
// deterministic and the committed BENCH_defense.json can be reproduced
// bit-for-bit.  The binary doubles as a gate: it exits non-zero when a
// certified-immune variant replays at all, or when a defense fails to
// beat the undefended engine on its own worst case.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/layout.hpp"
#include "sort/engines.hpp"
#include "util/error.hpp"
#include "workload/inputs.hpp"

namespace {

using namespace wcm;

struct Variant {
  const char* engine;
  gpusim::LayoutKind layout;
  u32 pad;
  bool defended;
  bool immune;  ///< certified conflict-free: replays must be exactly zero
};

struct Cell {
  const Variant* variant = nullptr;
  const char* input = "";
  u64 replays = 0;
  double conflicts_per_element = 0.0;
  double beta2 = 0.0;
  /// beta_2 of the last merge round — the round the k = 3 construction
  /// attacks, and where the defense's effect is sharpest.
  double final_round_beta2 = 0.0;
  double seconds = 0.0;
};

constexpr Variant kVariants[] = {
    {"pairwise", gpusim::LayoutKind::linear, 0, false, false},
    {"pairwise", gpusim::LayoutKind::linear, 1, true, false},
    {"pairwise", gpusim::LayoutKind::xor_swizzle, 0, true, false},
    {"pairwise", gpusim::LayoutKind::rotation, 0, true, false},
    {"shearsort", gpusim::LayoutKind::linear, 0, false, false},
    {"shearsort", gpusim::LayoutKind::xor_swizzle, 0, true, true},
    {"shearsort", gpusim::LayoutKind::rotation, 0, true, true},
};

int run(int argc, char** argv) {
  std::string out_path = "BENCH_defense.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: wcm-bench-defense [--out BENCH_defense.json]\n";
      return 2;
    }
  }

  sort::SortConfig base{5, 64, 32};
  const std::size_t n = base.tile() * 8;
  const auto dev = gpusim::quadro_m4000();
  const auto random =
      workload::make_input(workload::InputKind::random, n, base, 3);
  const auto worst =
      workload::make_input(workload::InputKind::worst_case, n, base, 3);

  std::vector<Cell> cells;
  for (const Variant& v : kVariants) {
    for (const auto& [name, input] :
         {std::pair{"random", &random}, std::pair{"worst-case", &worst}}) {
      sort::SortConfig cfg = base;
      cfg.padding = v.pad;
      cfg.layout = v.layout;
      const auto report = sort::find_sorting_engine(v.engine).run(*input, cfg,
                                                                  dev);
      Cell cell;
      cell.variant = &v;
      cell.input = name;
      cell.replays = report.totals.shared.replays;
      cell.conflicts_per_element = report.conflicts_per_element();
      cell.beta2 = report.beta2();
      cell.final_round_beta2 = gpusim::beta2(report.rounds.back().kernel);
      cell.seconds = report.seconds();
      std::cerr << v.engine << " layout=" << gpusim::to_string(v.layout)
                << " pad=" << v.pad << " " << name << ": replays "
                << cell.replays << ", final-round beta2 "
                << cell.final_round_beta2 << ", " << cell.seconds << " s\n";
      cells.push_back(cell);
    }
  }

  const auto find = [&](const char* engine, gpusim::LayoutKind layout,
                        u32 pad, const char* input) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.variant->engine == std::string(engine) &&
          c.variant->layout == layout && c.variant->pad == pad &&
          c.input == std::string(input)) {
        return c;
      }
    }
    throw contract_error("benchmark cell missing");
  };

  bool ok = true;
  const Cell& exposed =
      find("pairwise", gpusim::LayoutKind::linear, 0, "worst-case");
  // The construction drives the attacked round's beta_2 to exactly E.
  if (exposed.final_round_beta2 < static_cast<double>(base.E)) {
    std::cerr << "FAILED: the adversarial input did not saturate the "
                 "undefended engine's attacked round\n";
    ok = false;
  }
  for (const Variant& v : kVariants) {
    const Cell& w = find(v.engine, v.layout, v.pad, "worst-case");
    if (v.immune && w.replays != 0) {
      std::cerr << "FAILED: " << v.engine << "/" << gpusim::to_string(v.layout)
                << " claims immunity but replayed " << w.replays << "\n";
      ok = false;
    }
    // Defenses of the attacked engine (the immune ones are checked above).
    if (v.defended && !v.immune &&
        w.final_round_beta2 >= exposed.final_round_beta2 / 1.5) {
      std::cerr << "FAILED: defense " << gpusim::to_string(v.layout)
                << " pad " << v.pad << " does not collapse the attacked "
                << "round's beta2\n";
      ok = false;
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    throw io_error("cannot open benchmark output", out_path);
  }
  os << "{\"bench\":\"defense\",\"device\":\"" << dev.name
     << "\",\"E\":" << base.E << ",\"b\":" << base.b << ",\"w\":" << base.w
     << ",\"n\":" << n << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const Variant& v = *c.variant;
    const Cell& rnd = find(v.engine, v.layout, v.pad, "random");
    if (i > 0) {
      os << ',';
    }
    os << "{\"engine\":\"" << v.engine << "\",\"layout\":\""
       << gpusim::to_string(v.layout) << "\",\"pad\":" << v.pad
       << ",\"defended\":" << (v.defended ? "true" : "false")
       << ",\"input\":\"" << c.input << "\",\"replays\":" << c.replays
       << ",\"conflicts_per_element\":" << c.conflicts_per_element
       << ",\"beta2\":" << c.beta2
       << ",\"final_round_beta2\":" << c.final_round_beta2
       << ",\"modeled_seconds\":" << c.seconds
       << ",\"slowdown_vs_random\":" << c.seconds / rnd.seconds << "}";
  }
  const Cell& padded =
      find("pairwise", gpusim::LayoutKind::linear, 1, "worst-case");
  os << "],\"attacked_round_beta2_undefended\":" << exposed.final_round_beta2
     << ",\"attacked_round_beta2_padded\":" << padded.final_round_beta2
     << ",\"ok\":" << (ok ? "true" : "false") << "}\n";
  if (!os.flush()) {
    throw io_error("benchmark output write failed", out_path);
  }
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells)\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wcm-bench-defense: " << e.what() << "\n";
    return 5;
  }
}
