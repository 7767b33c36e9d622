#include "sim.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/generator.hpp"
#include "dmm/access.hpp"
#include "gpusim/trace.hpp"
#include "sort/cpu_reference.hpp"
#include "sort/shearsort.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"

namespace perfbench {

namespace {

using wcm::dmm::word;
using wcm::gpusim::LayoutKind;

std::vector<SimLayout> layouts_for(SimEngine engine) {
  if (engine == SimEngine::pairwise) {
    return {{"linear", 0, LayoutKind::linear},
            {"pad1", 1, LayoutKind::linear},
            {"xor", 0, LayoutKind::xor_swizzle}};
  }
  return {{"xor", 0, LayoutKind::xor_swizzle},
          {"rotation", 0, LayoutKind::rotation}};
}

wcm::sort::SortConfig base_config(const Tuning& t) {
  wcm::sort::SortConfig cfg;
  cfg.E = t.E;
  cfg.b = t.b;
  cfg.w = 32;
  return cfg;
}

std::string expected_key(const SimCell& cell, u32 pool_seed) {
  return cell.key() + "#" + std::to_string(pool_seed);
}

/// Seeded input of a cell.  Worst-case inputs are built for the tuning's
/// undefended (linear) configuration and then sorted under the cell's
/// layout; `pool_seed` picks the member of the permutation family (tile
/// shuffle) or the random permutation.
std::vector<word> make_input(const SimCell& cell, u32 pool_seed) {
  if (cell.worst_case) {
    wcm::core::AttackOptions opts;
    opts.tile_shuffle_seed = pool_seed;
    return wcm::core::worst_case_input(cell.n, base_config(*cell.tuning),
                                       opts);
  }
  return wcm::workload::random_permutation(cell.n, pool_seed);
}

wcm::sort::SortReport run_sort(const SimCell& cell,
                               const std::vector<word>& input,
                               std::vector<word>* output,
                               wcm::gpusim::TraceRecorder* recorder = nullptr) {
  wcm::sort::SortConfig cfg = cell.config();
  cfg.trace_sink = recorder;
  if (cell.engine == SimEngine::pairwise) {
    return wcm::sort::pairwise_merge_sort(input, cfg, cell.tuning->device,
                                          cell.tuning->library, output);
  }
  return wcm::sort::shearsort(input, cfg, cell.tuning->device, output);
}

Totals totals_of(const wcm::sort::SortReport& r) {
  Totals t;
  t.steps = r.totals.shared.steps;
  t.serialization = r.totals.shared.serialization_cycles;
  t.replays = r.totals.shared.replays;
  t.conflicting = r.totals.shared.conflicting_accesses;
  t.modeled_seconds = r.seconds();
  return t;
}

/// One timed cell: worst-case generation (when used) plus the sort.
struct CellRun {
  std::vector<word> input;
  std::vector<word> output;
  wcm::sort::SortReport report;
  double gen_s = 0;
  double sort_s = 0;
};

CellRun run_cell(const SimCell& cell, u32 pool_seed) {
  CellRun run;
  const auto t0 = Clock::now();
  run.input = make_input(cell, pool_seed);
  const auto t1 = Clock::now();
  run.report = run_sort(cell, run.input, &run.output);
  const auto t2 = Clock::now();
  run.gen_s = cell.worst_case ? seconds_between(t0, t1) : 0.0;
  run.sort_s = seconds_between(t1, t2);
  return run;
}

/// The per-cell correctness checks; returns false (and records why) on
/// the first violation.
bool check_cell(const SimCell& cell, u32 pool_seed, const CellRun& run,
                const Expected& expected, Report& report) {
  const std::string where = expected_key(cell, pool_seed);
  if (run.output != wcm::sort::std_sort(run.input)) {
    report.fail_check(where + ": sorted output differs from sort::std_sort");
    return false;
  }
  if (cell.worst_case && !wcm::workload::is_permutation_of_iota(run.input)) {
    report.fail_check(where + ": worst-case input is not a permutation");
    return false;
  }
  const auto it = expected.find(where);
  if (it == expected.end()) {
    report.fail_check(where + ": no expected totals for this cell");
    return false;
  }
  const Totals got = totals_of(run.report);
  const Totals& want = it->second;
  const double tol = 1e-12 * std::abs(want.modeled_seconds);
  if (got.steps != want.steps || got.serialization != want.serialization ||
      got.replays != want.replays || got.conflicting != want.conflicting ||
      std::abs(got.modeled_seconds - want.modeled_seconds) > tol) {
    std::ostringstream os;
    os << where << ": SortReport totals differ from the expected file (steps "
       << got.steps << "/" << want.steps << ", serialization "
       << got.serialization << "/" << want.serialization << ", replays "
       << got.replays << "/" << want.replays << ", conflicting "
       << got.conflicting << "/" << want.conflicting << ")";
    report.fail_check(os.str());
    return false;
  }
  if (cell.engine == SimEngine::shearsort && got.replays != 0) {
    report.fail_check(where + ": certified engine reported replays");
    return false;
  }
  return true;
}

double slowdown_pct(double worst_s, double random_s) {
  return (worst_s - random_s) / random_s * 100.0;
}

}  // namespace

const char* to_string(SimEngine engine) noexcept {
  return engine == SimEngine::pairwise ? "pairwise" : "shearsort";
}

std::string SimCell::key() const {
  return std::string(to_string(engine)) + "/" + tuning->name + "/" +
         (worst_case ? "worst-case" : "random") + "/" + layout.name + "/k" +
         std::to_string(k);
}

wcm::sort::SortConfig SimCell::config() const {
  wcm::sort::SortConfig cfg = base_config(*tuning);
  cfg.padding = layout.pad;
  cfg.layout = layout.kind;
  return cfg;
}

const std::vector<Tuning>& tunings() {
  using wcm::sort::MergeSortLibrary;
  // n = bE * 2^k up to about 122,880 (the Fig. 4/5 range where the attack
  // models slower than random); the traced size keeps each recorded
  // access stream to a few tens of MiB.
  static const std::vector<Tuning> all{
      {"thrust-m4000", 15, 512, wcm::gpusim::quadro_m4000(),
       MergeSortLibrary::thrust, 1, 4, 2},
      {"mgpu-m4000", 15, 128, wcm::gpusim::quadro_m4000(),
       MergeSortLibrary::mgpu, 1, 6, 4},
      {"thrust-2080ti", 17, 256, wcm::gpusim::rtx_2080ti(),
       MergeSortLibrary::thrust, 1, 5, 3},
  };
  return all;
}

std::vector<SimCell> sim_grid(SimEngine engine) {
  std::vector<SimCell> cells;
  for (const auto& t : tunings()) {
    for (const bool worst : {true, false}) {
      for (const auto& layout : layouts_for(engine)) {
        for (u32 k = t.k_min; k <= t.k_max; ++k) {
          SimCell c;
          c.engine = engine;
          c.tuning = &t;
          c.worst_case = worst;
          c.layout = layout;
          c.k = k;
          c.n = static_cast<std::size_t>(t.E) * t.b << k;
          cells.push_back(c);
        }
      }
    }
  }
  return cells;
}

Expected load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw wcm::io_error("cannot open expected totals file " + path);
  }
  Expected expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    Totals t;
    if (!(ls >> key >> t.steps >> t.serialization >> t.replays >>
          t.conflicting >> t.modeled_seconds)) {
      throw wcm::parse_error("malformed expected totals line: " + line);
    }
    expected[key] = t;
  }
  if (expected.empty()) {
    throw wcm::parse_error("expected totals file " + path + " is empty");
  }
  return expected;
}

void write_expected(std::ostream& os, u32 threads) {
  struct Job {
    SimCell cell;
    u32 pool_seed = 0;
    Totals totals;
  };
  std::vector<Job> jobs;
  for (const SimEngine engine : {SimEngine::pairwise, SimEngine::shearsort}) {
    for (const auto& cell : sim_grid(engine)) {
      for (u32 s = 1; s <= kSeedPool; ++s) {
        jobs.push_back({cell, s, {}});
      }
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (u32 i = 0; i < std::max<u32>(threads, 1); ++i) {
    pool.emplace_back([&] {
      for (std::size_t j = next++; j < jobs.size(); j = next++) {
        const auto input = make_input(jobs[j].cell, jobs[j].pool_seed);
        jobs[j].totals = totals_of(run_sort(jobs[j].cell, input, nullptr));
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  os << "# SortReport totals per benchmark cell and input seed:\n"
     << "# <engine/tuning/input/layout/k>#<seed> steps serialization "
        "replays conflicting_accesses modeled_seconds\n";
  char buf[64];
  for (const auto& j : jobs) {
    std::snprintf(buf, sizeof buf, "%.17g", j.totals.modeled_seconds);
    os << expected_key(j.cell, j.pool_seed) << ' ' << j.totals.steps << ' '
       << j.totals.serialization << ' ' << j.totals.replays << ' '
       << j.totals.conflicting << ' ' << buf << '\n';
  }
}

SimLoopResult run_sim_loop(const SimLoopOptions& opts, const Expected& expected,
                           Report& report) {
  std::vector<SimCell> cells;
  for (const auto& c : sim_grid(opts.engine)) {
    if (!opts.control || c.k == c.tuning->k_min) {
      cells.push_back(c);
    }
  }
  wcm::Xoshiro256 rng(wcm::fork_seed(opts.seed, 0x51u));
  // The slowdown check needs both inputs at each tuning's largest linear
  // size, so those cells open the run.
  std::vector<std::size_t> order;
  const bool slowdown_check =
      opts.engine == SimEngine::pairwise && !opts.control;
  if (slowdown_check) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].layout.name == "linear" &&
          cells[i].k == cells[i].tuning->k_max) {
        order.push_back(i);
      }
    }
  }
  // The rest follow one fixed round, repeated.  A round gives every size
  // the same number of elements (a cell runs 2^(k_max - k) times), and its
  // occurrences are interleaved at evenly spaced, per-cell offset points,
  // so the cells a run reaches in its time have nearly the same mix
  // whatever the seed; the seed draws each occurrence's input.
  std::vector<std::pair<double, std::size_t>> keyed;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const u32 reps =
        opts.control ? 1u : 1u << (cells[i].tuning->k_max - cells[i].k);
    const double offset =
        std::fmod(static_cast<double>(i + 1) * 0.6180339887498949, 1.0);
    for (u32 j = 0; j < reps; ++j) {
      keyed.emplace_back((j + offset) / reps, i);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::map<std::string, double> worst_s, random_s;

  SimLoopResult result;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  // The slowdown cells always run, however short the phase.
  const std::size_t front = order.size();
  std::size_t pos = 0;
  while (pos < front || Clock::now() < deadline) {
    if (pos == order.size()) {
      for (const auto& [key, i] : keyed) {
        order.push_back(i);
      }
    }
    const SimCell& cell = cells[order[pos++]];
    const auto pool_seed = static_cast<u32>(1 + rng.below(kSeedPool));
    const CellRun run = run_cell(cell, pool_seed);
    const double cell_s = run.gen_s + run.sort_s;
    result.ns_per_elem.push_back(cell_s / static_cast<double>(cell.n) * 1e9);
    result.elements += static_cast<double>(cell.n);
    result.busy_s += cell_s;
    ++result.cells;
    if (!check_cell(cell, pool_seed, run, expected, report)) {
      ++result.failed;
    }
    if (slowdown_check && cell.layout.name == "linear" &&
        cell.k == cell.tuning->k_max) {
      (cell.worst_case ? worst_s : random_s)[cell.tuning->name] =
          run.report.seconds();
    }
  }
  if (slowdown_check) {
    for (const auto& t : tunings()) {
      const double pct = slowdown_pct(worst_s[t.name], random_s[t.name]);
      report.detail["modeled_slowdown_pct." + t.name] = pct;
      if (!(pct > 0.0)) {
        report.fail_check(t.name + ": worst-case does not model slower than "
                          "random at the largest linear size");
      }
    }
  }
  return result;
}

double run_sim_traced(SimEngine primary, bool control, u64 seed,
                      const Expected& expected, Spans& spans, Report& report) {
  const SimEngine other = primary == SimEngine::pairwise
                              ? SimEngine::shearsort
                              : SimEngine::pairwise;
  struct Traced {
    SimCell cell;
    bool replay = false;  // primary cells replay their access stream
  };
  std::vector<Traced> list;
  for (const auto& c : sim_grid(primary)) {
    if (c.k == (control ? c.tuning->k_min : c.tuning->k_traced)) {
      list.push_back({c, true});
    }
  }
  const std::string other_layout = layouts_for(other).front().name;
  for (const auto& c : sim_grid(other)) {
    if (c.worst_case && c.layout.name == other_layout &&
        c.k == c.tuning->k_min) {
      list.push_back({c, false});
    }
  }

  wcm::Xoshiro256 rng(wcm::fork_seed(seed, 0x7ac3u));
  double untraced_s = 0, traced_s = 0;
  double gen_s = 0, gen_elems = 0, inv_s = 0, inv_elems = 0;
  std::map<SimEngine, double> sort_s, sort_elems;
  double primary_sort_s = 0, analyze_s = 0, replay_s = 0;
  u64 steps = 0, conflict_free = 0, lanes = 0, replays = 0, rounds = 0;
  std::map<std::string, double> worst_s, random_s;
  const std::string first_layout = layouts_for(primary).front().name;

  for (std::size_t i = 0; i < list.size(); ++i) {
    const SimCell& cell = list[i].cell;
    const auto pool_seed = static_cast<u32>(1 + rng.below(kSeedPool));
    Spans::Scope cell_span(spans, "cell " + cell.key(), "bench");

    // Untraced and traced passes of the same cell, in alternating order so
    // cache warm-up does not bias the overhead share.
    CellRun plain;
    CellRun traced;
    const auto traced_pass = [&] {
      const auto t0 = Clock::now();
      {
        Spans::Scope s(spans, "core.worst_case_input", "core");
        traced.input = make_input(cell, pool_seed);
      }
      const auto t1 = Clock::now();
      {
        Spans::Scope s(spans, std::string("sort.") + to_string(cell.engine),
                       "sort");
        traced.report = run_sort(cell, traced.input, &traced.output);
      }
      const auto t2 = Clock::now();
      traced.gen_s = cell.worst_case ? seconds_between(t0, t1) : 0.0;
      traced.sort_s = seconds_between(t1, t2);
    };
    if (i % 2 == 0) {
      plain = run_cell(cell, pool_seed);
      traced_pass();
    } else {
      traced_pass();
      plain = run_cell(cell, pool_seed);
    }
    untraced_s += plain.gen_s + plain.sort_s;
    traced_s += traced.gen_s + traced.sort_s;
    const bool plain_ok = check_cell(cell, pool_seed, plain, expected, report);
    const bool traced_ok =
        check_cell(cell, pool_seed, traced, expected, report);
    if (!plain_ok || !traced_ok) {
      ++report.failed;
    }

    if (cell.worst_case) {
      gen_s += plain.gen_s;
      gen_elems += static_cast<double>(cell.n);
    }
    sort_s[cell.engine] += plain.sort_s;
    sort_elems[cell.engine] += static_cast<double>(cell.n);
    {
      Spans::Scope s(spans, "workload.inversion_fraction", "workload");
      const auto t0 = Clock::now();
      const double frac = wcm::workload::inversion_fraction(plain.input);
      inv_s += seconds_between(t0, Clock::now());
      inv_elems += static_cast<double>(cell.n);
      if (!(frac >= 0.0 && frac <= 1.0)) {
        report.fail_check(cell.key() + ": inversion fraction out of range");
      }
    }
    if (!list[i].replay) {
      continue;
    }
    rounds += plain.report.rounds.size();
    primary_sort_s += plain.sort_s;
    if (cell.layout.name == first_layout) {
      (cell.worst_case ? worst_s : random_s)[cell.tuning->name] =
          plain.report.seconds();
    }

    // Record the cell's access stream, then time its replay through the
    // gpusim layer and the bare DMM step analysis.
    wcm::gpusim::TraceRecorder recorder(32);
    {
      Spans::Scope s(spans, "bench.trace_capture", "bench");
      (void)run_sort(cell, plain.input, nullptr, &recorder);
    }
    const wcm::gpusim::Trace trace = recorder.take();
    const wcm::gpusim::SharedLayout layout{32, cell.layout.pad,
                                           cell.layout.kind};
    wcm::dmm::MachineStats replayed;
    {
      Spans::Scope s(spans, "gpusim.replay_stats", "gpusim");
      const auto t0 = Clock::now();
      replayed = wcm::gpusim::replay_stats(trace, layout);
      replay_s += seconds_between(t0, Clock::now());
    }
    if (replayed.replays != plain.report.totals.shared.replays ||
        replayed.serialization_cycles !=
            plain.report.totals.shared.serialization_cycles) {
      report.fail_check(cell.key() +
                        ": trace replay differs from the live SortReport");
    }
    std::vector<wcm::dmm::Request> requests;
    std::vector<std::size_t> offsets{0};
    for (const auto& st : trace.steps) {
      if (!st.is_access()) {
        continue;
      }
      for (const auto& [lane, addr] : st.accesses) {
        requests.push_back(
            {lane, layout.physical(addr),
             st.is_write() ? wcm::dmm::Op::write : wcm::dmm::Op::read, 0});
      }
      offsets.push_back(requests.size());
    }
    {
      Spans::Scope s(spans, "dmm.analyze_step", "dmm");
      const auto t0 = Clock::now();
      for (std::size_t j = 0; j + 1 < offsets.size(); ++j) {
        const auto cost = wcm::dmm::analyze_step(
            std::span<const wcm::dmm::Request>(
                requests.data() + offsets[j], offsets[j + 1] - offsets[j]),
            32);
        conflict_free += cost.serialization <= 1 ? 1 : 0;
        lanes += cost.requests;
        replays += cost.replays;
      }
      analyze_s += seconds_between(t0, Clock::now());
    }
    steps += offsets.size() - 1;
  }

  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double step_count = static_cast<double>(steps);
  report.add("dmm.analyze_ns_per_step", per(analyze_s * 1e9, step_count),
             "ns");
  report.add("dmm.share_of_sort", per(analyze_s, primary_sort_s), "ratio");
  report.add("dmm.conflict_free_share",
             per(static_cast<double>(conflict_free), step_count), "ratio");
  report.add("dmm.lanes_per_step", per(static_cast<double>(lanes), step_count),
             "count");
  report.add("gpusim.replay_ns_per_step", per(replay_s * 1e9, step_count),
             "ns");
  report.add("gpusim.access_steps", step_count, "count");
  report.add("gpusim.replays", static_cast<double>(replays), "count");
  report.add("sort.pairwise.ns_per_elem",
             per(sort_s[SimEngine::pairwise] * 1e9,
                 sort_elems[SimEngine::pairwise]),
             "ns");
  report.add("sort.shearsort.ns_per_elem",
             per(sort_s[SimEngine::shearsort] * 1e9,
                 sort_elems[SimEngine::shearsort]),
             "ns");
  report.add("sort.rounds", static_cast<double>(rounds), "count");
  for (const auto& t : tunings()) {
    report.add("sort.modeled_slowdown_pct." + t.name,
               slowdown_pct(worst_s[t.name], random_s[t.name]), "%");
  }
  report.add("core.generate_ns_per_elem", per(gen_s * 1e9, gen_elems), "ns");
  report.add("workload.inversion_ns_per_elem", per(inv_s * 1e9, inv_elems),
             "ns");
  report.detail["sim.traced_cells"] = static_cast<double>(list.size());
  report.attempted += list.size();
  return per(traced_s - untraced_s, untraced_s);
}

}  // namespace perfbench
