#include "runtime/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include <optional>

#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"
#include "runtime/journal.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stopwatch.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace wcm::runtime {

namespace {

/// Overwrite `out` from environment variable `name` when it is set.
void env_u32(const char* name, u32& out) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing
  // in the process calls setenv.
  const char* v = std::getenv(name);
  if (v != nullptr && *v != '\0') {
    out = static_cast<u32>(std::stoul(v));
  }
}

/// Hard cap on expanded cells: a typo'd spec must not OOM the host.
constexpr std::size_t kMaxCells = 1u << 20;
constexpr u32 kMaxK = 40;

/// A grid field that is either one number or an array of numbers.
std::vector<u32> u32_list(const json::Value& v, const std::string& field,
                          u32 max) {
  std::vector<u32> out;
  if (v.is_array()) {
    for (const auto& item : v.as_array()) {
      out.push_back(static_cast<u32>(item.as_u64(max)));
    }
  } else {
    out.push_back(static_cast<u32>(v.as_u64(max)));
  }
  if (out.empty()) {
    throw parse_error("campaign field '" + field + "' must not be empty");
  }
  return out;
}

std::vector<workload::InputKind> input_list(const json::Value& v) {
  std::vector<workload::InputKind> out;
  if (v.is_array()) {
    for (const auto& item : v.as_array()) {
      out.push_back(workload::parse_input_kind(item.as_string()));
    }
  } else {
    out.push_back(workload::parse_input_kind(v.as_string()));
  }
  if (out.empty()) {
    throw parse_error("campaign field 'input' must not be empty");
  }
  return out;
}

void reject_unknown_keys(const json::Object& obj,
                         const std::vector<std::string>& allowed,
                         const char* where) {
  for (const auto& [key, value] : obj) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string names;
      for (const auto& a : allowed) {
        names += names.empty() ? a : ", " + a;
      }
      throw parse_error("unknown key \"" + key + "\" in " + where +
                        " (valid: " + names + ")");
    }
  }
}

GridEntry entry_from(const json::Value& v) {
  const auto& obj = v.as_object();
  reject_unknown_keys(obj,
                      {"engine", "library", "E", "b", "w", "padding", "input",
                       "k", "ways", "digit_bits"},
                      "grid entry");
  GridEntry e;
  if (auto it = obj.find("engine"); it != obj.end()) {
    e.engine = &sort::find_sorting_engine(it->second.as_string());
  }
  if (auto it = obj.find("library"); it != obj.end()) {
    e.knobs.library = sort::parse_library(it->second.as_string());
  }
  if (auto it = obj.find("E"); it != obj.end()) {
    e.E = u32_list(it->second, "E", 1u << 10);
  }
  if (auto it = obj.find("b"); it != obj.end()) {
    e.b = u32_list(it->second, "b", 1u << 16);
  }
  if (auto it = obj.find("w"); it != obj.end()) {
    e.w = static_cast<u32>(it->second.as_u64(1u << 8));
  }
  if (auto it = obj.find("padding"); it != obj.end()) {
    e.padding = u32_list(it->second, "padding", 1u << 8);
  }
  if (auto it = obj.find("input"); it != obj.end()) {
    e.inputs = input_list(it->second);
  }
  if (auto it = obj.find("k"); it != obj.end()) {
    e.k = u32_list(it->second, "k", kMaxK);
  }
  if (auto it = obj.find("ways"); it != obj.end()) {
    e.knobs.ways = static_cast<u32>(it->second.as_u64(64));
  }
  if (auto it = obj.find("digit_bits"); it != obj.end()) {
    e.knobs.digit_bits = static_cast<u32>(it->second.as_u64(16));
  }
  return e;
}

/// Compute one cell.  `recorder` non-null = capture the cell's
/// shared-memory trace for `wcmgen analyze`.
analysis::SeriesPoint compute_cell(const CampaignCell& cell,
                                   const gpusim::Device& dev,
                                   gpusim::TraceRecorder* recorder) {
  // Inputs are generated trace-free: the recorded WCMT must contain only
  // the sort's own access stream, not the adversarial generator's.
  const auto input =
      workload::make_input(cell.input, cell.n, cell.config, cell.seed);
  sort::SortConfig cfg = cell.config;
  cfg.trace_sink = recorder;
  return analysis::point_of(cell.engine->run(input, cfg, dev, cell.knobs));
}

/// Base label shared by every size of one curve (everything but input/k).
std::string base_label(const CampaignCell& cell) {
  std::ostringstream os;
  os << cell.engine->name;
  if (cell.engine->reads_library) {
    os << '/' << sort::library_name(cell.knobs.library);
  }
  os << " E=" << cell.config.E << " b=" << cell.config.b
     << " w=" << cell.config.w << " pad=" << cell.config.padding;
  if (cell.engine->reads_ways) {
    os << " ways=" << cell.knobs.ways;
  }
  if (cell.engine->reads_digit_bits) {
    os << " bits=" << cell.knobs.digit_bits;
  }
  return os.str();
}

struct CellRun {
  CampaignCell cell;
  u64 key = 0;
  analysis::SeriesPoint metrics;
  bool cached = false;
  bool replayed = false;  ///< restored from the journal
  bool have = false;      ///< metrics are valid (cached/replayed/computed)
};

void write_aggregate_json(std::ostream& os, const CampaignSpec& spec,
                          const std::vector<CellRun>& runs,
                          const std::vector<QuarantinedCell>& quarantined) {
  os << "{\"campaign\":";
  json::write_string(os, spec.name);
  os << ",\"device\":";
  json::write_string(os, spec.device.name);
  os << ",\"seed\":" << spec.seed << ",\"cells\":[";
  bool first_cell = true;
  for (const auto& r : runs) {
    if (!r.have) {
      continue;  // quarantined: reported in the quarantined section instead
    }
    if (!first_cell) {
      os << ',';
    }
    first_cell = false;
    os << "{\"engine\":\"" << r.cell.engine->name << "\""
       << ",\"library\":\"" << sort::library_name(r.cell.knobs.library)
       << "\"" << ",\"E\":" << r.cell.config.E << ",\"b\":" << r.cell.config.b
       << ",\"w\":" << r.cell.config.w
       << ",\"padding\":" << r.cell.config.padding << ",\"input\":\""
       << workload::to_string(r.cell.input) << "\"" << ",\"k\":" << r.cell.k
       << ",\"ways\":" << r.cell.knobs.ways
       << ",\"digit_bits\":" << r.cell.knobs.digit_bits
       << ",\"seed\":" << r.cell.seed
       << ",\"n\":" << r.metrics.n << ",\"seconds\":" << r.metrics.seconds
       << ",\"throughput\":" << r.metrics.throughput
       << ",\"conflicts_per_element\":" << r.metrics.conflicts_per_elem
       << ",\"beta1\":" << r.metrics.beta1
       << ",\"beta2\":" << r.metrics.beta2 << "}";
  }
  os << "]";

  // Series: one curve per (base label, input), points in expansion order.
  // std::map keys make the section order deterministic and spec-shuffle
  // resistant.
  std::map<std::string, std::map<std::string, std::vector<analysis::SeriesPoint>>>
      curves;
  for (const auto& r : runs) {
    if (!r.have) {
      continue;
    }
    curves[base_label(r.cell)][workload::to_string(r.cell.input)].push_back(
        r.metrics);
  }
  os << ",\"series\":[";
  bool first = true;
  for (const auto& [base, by_input] : curves) {
    for (const auto& [input, points] : by_input) {
      if (!first) {
        os << ',';
      }
      first = false;
      os << "{\"label\":";
      json::write_string(os, base + " " + input);
      os << ",\"points\":[";
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i) {
          os << ',';
        }
        os << "{\"n\":" << points[i].n
           << ",\"throughput\":" << points[i].throughput
           << ",\"seconds\":" << points[i].seconds
           << ",\"conflicts_per_element\":" << points[i].conflicts_per_elem
           << ",\"beta2\":" << points[i].beta2 << "}";
      }
      os << "]}";
    }
  }
  os << "]";

  // Slowdown stats (the paper's headline metric) wherever one curve has
  // both a random baseline and a worst-case attack at identical sizes.
  os << ",\"slowdowns\":[";
  first = true;
  for (const auto& [base, by_input] : curves) {
    const auto rand_it = by_input.find("random");
    const auto worst_it = by_input.find("worst-case");
    if (rand_it == by_input.end() || worst_it == by_input.end()) {
      continue;
    }
    const auto& baseline = rand_it->second;
    const auto& degraded = worst_it->second;
    if (baseline.size() != degraded.size()) {
      continue;
    }
    bool sizes_match = true;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      sizes_match = sizes_match && baseline[i].n == degraded[i].n;
    }
    if (!sizes_match) {
      continue;
    }
    const auto stats = analysis::compare_series(baseline, degraded);
    if (!first) {
      os << ',';
    }
    first = false;
    os << "{\"label\":";
    json::write_string(os, base);
    os << ",\"peak_percent\":" << stats.peak_percent
       << ",\"peak_n\":" << stats.peak_n
       << ",\"average_percent\":" << stats.average_percent << "}";
  }
  os << "]";

  // Quarantined cells, in expansion order.  Always present (empty on a
  // clean run) so a resumed clean run stays byte-identical to an
  // uninterrupted one.
  os << ",\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    const auto& q = quarantined[i];
    if (i) {
      os << ',';
    }
    os << "{\"index\":" << q.index << ",\"label\":";
    json::write_string(os, q.label);
    os << ",\"code\":\"" << wcm::to_string(q.code) << "\""
       << ",\"message\":";
    json::write_string(os, q.message);
    os << ",\"attempts\":" << q.attempts << "}";
  }
  os << "]}";
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  const auto& obj = doc.as_object();
  reject_unknown_keys(
      obj, {"name", "device", "seed", "threads", "trace_dir", "grid"},
      "campaign spec");
  CampaignSpec spec;
  if (auto it = obj.find("name"); it != obj.end()) {
    spec.name = it->second.as_string();
  }
  if (auto it = obj.find("device"); it != obj.end()) {
    spec.device_name = it->second.as_string();
  }
  spec.device = gpusim::parse_device(spec.device_name);
  if (auto it = obj.find("seed"); it != obj.end()) {
    spec.seed = it->second.as_u64();
  }
  if (auto it = obj.find("threads"); it != obj.end()) {
    spec.threads = static_cast<u32>(it->second.as_u64(4096));
  }
  if (auto it = obj.find("trace_dir"); it != obj.end()) {
    spec.trace_dir = it->second.as_string();
  }
  const auto grid_it = obj.find("grid");
  if (grid_it == obj.end() || !grid_it->second.is_array() ||
      grid_it->second.as_array().empty()) {
    throw parse_error(
        "campaign spec needs a non-empty \"grid\" array of entries");
  }
  for (const auto& entry : grid_it->second.as_array()) {
    spec.grid.push_back(entry_from(entry));
  }
  return spec;
}

CampaignSpec load_campaign_spec(const std::filesystem::path& path) {
  std::ifstream is(path);
  WCM_CHECK_IO(is.is_open(), "cannot open campaign spec: " + path.string());
  std::ostringstream buf;
  buf << is.rdbuf();
  WCM_CHECK_IO(static_cast<bool>(is), "cannot read campaign spec: " +
                                          path.string());
  try {
    CampaignSpec spec = parse_campaign_spec(buf.str());
    spec.source_path = path;
    return spec;
  } catch (const parse_error& e) {
    // A spec that does not parse is a bad input *file* (exit 3), exactly
    // like a corrupt WCMI/WCMT; semantic config errors keep their class.
    throw io_error(std::string("invalid campaign spec: ") + e.what(),
                   path.string());
  }
}

std::vector<CampaignCell> expand(const CampaignSpec& spec) {
  WCM_SPAN("campaign.expand");
  std::vector<CampaignCell> cells;
  for (const auto& entry : spec.grid) {
    for (const u32 e : entry.E) {
      for (const u32 b : entry.b) {
        for (const u32 pad : entry.padding) {
          for (const auto input : entry.inputs) {
            for (const u32 k : entry.k) {
              WCM_CHECK_CONFIG(cells.size() < kMaxCells,
                               "campaign expands to more than " +
                                   std::to_string(kMaxCells) + " cells");
              CampaignCell cell;
              cell.engine = entry.engine;
              cell.knobs = entry.knobs;
              if (!cell.engine->reads_ways) {
                cell.knobs.ways = 0;
              }
              if (!cell.engine->reads_digit_bits) {
                cell.knobs.digit_bits = 0;
              }
              cell.config.E = e;
              cell.config.b = b;
              cell.config.w = entry.w;
              cell.config.padding = pad;
              cell.input = input;
              cell.k = k;
              cell.n = cell.config.tile() << k;
              const sort::SortConfig launch =
                  cell.engine->shape(cell.config, cell.n, cell.knobs).cfg;
              const auto occ = gpusim::occupancy(spec.device, launch.b,
                                                 launch.shared_bytes());
              WCM_CHECK_CONFIG(
                  occ.resident_blocks > 0,
                  "grid cell does not fit on " + spec.device.name + ": E=" +
                      std::to_string(launch.E) + " b=" + std::to_string(b) +
                      " pad=" + std::to_string(pad));

              std::ostringstream canon;
              canon << "wcmc1|device=" << spec.device.name
                    << "|engine=" << cell.engine->name
                    << "|lib=" << sort::library_name(cell.knobs.library)
                    << "|E=" << e << "|b=" << b << "|w=" << entry.w
                    << "|pad=" << pad << "|refills=0"
                    << "|input=" << workload::to_string(input) << "|k=" << k
                    << "|n=" << cell.n << "|ways=" << cell.knobs.ways
                    << "|bits=" << cell.knobs.digit_bits;
              const std::string base = canon.str();
              cell.seed = fork_seed(
                  spec.seed, fnv1a(fnv_offset_basis, base.data(),
                                   base.size()));
              cell.canonical = base + "|seed=" + std::to_string(cell.seed);

              std::ostringstream label;
              label << base_label(cell) << " "
                    << workload::to_string(input) << " k=" << k;
              cell.label = label.str();
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  WCM_SPAN("campaign.run");
  const telemetry::Stopwatch wall;
  const auto cells = expand(spec);

  CampaignOutcome outcome;
  outcome.cells = cells.size();

  // Resolve the cache file: explicit option, else next to the spec.
  std::filesystem::path cache_path = options.cache_path;
  if (cache_path.empty() && !spec.source_path.empty()) {
    cache_path = spec.source_path;
    cache_path += ".wcmc";
  }
  const bool caching = options.use_cache && !cache_path.empty();
  const u64 salt = code_version_salt();
  ResultCache cache = caching ? ResultCache::load(cache_path, salt)
                              : ResultCache(salt);

  const std::string trace_dir =
      options.trace_dir.empty() ? spec.trace_dir : options.trace_dir;
  if (!trace_dir.empty()) {
    std::filesystem::create_directories(trace_dir);
  }

  // Journal replay (resume): cells already sealed in the journal are not
  // recomputed.  Traces disable journaling — a replayed cell cannot
  // reproduce its trace side effect.
  const bool journaling = !options.journal_path.empty() && trace_dir.empty();
  const u64 fingerprint = campaign_fingerprint(cells);
  JournalReplay replay;
  if (journaling && options.resume) {
    replay = replay_journal(options.journal_path, salt, fingerprint);
  }
  std::map<u64, analysis::SeriesPoint> journaled;
  if (replay.compatible) {
    for (const auto& rec : replay.records) {
      journaled[rec.key] = rec.metrics;
    }
  }

  // Cell resolution is serial and deterministic: journal first, then
  // cache; only the remainder becomes jobs.
  std::vector<CellRun> runs(cells.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runs[i].cell = cells[i];
    runs[i].key = cache.key_of(cells[i].canonical);
    if (const auto it = journaled.find(runs[i].key); it != journaled.end()) {
      runs[i].metrics = it->second;
      runs[i].replayed = true;
      runs[i].have = true;
      cache.insert(runs[i].key, it->second);  // replay feeds the cache too
      continue;
    }
    // A cache hit still recomputes when traces were requested: the trace
    // is a side effect the cache does not store.
    const auto hit = trace_dir.empty() ? cache.lookup(runs[i].key)
                                       : std::nullopt;
    if (hit.has_value()) {
      runs[i].metrics = *hit;
      runs[i].cached = true;
      runs[i].have = true;
    } else {
      misses.push_back(i);
    }
  }
  for (const auto& r : runs) {
    outcome.cache_hits += r.cached ? 1 : 0;
    outcome.replayed += r.replayed ? 1 : 0;
  }

  // Open the journal for append and seal every already-known cell up
  // front, so a crash from here on resumes with all of them.
  std::optional<JournalWriter> journal;
  if (journaling) {
    journal.emplace(options.journal_path, salt, fingerprint, replay);
    for (const auto& r : runs) {
      if (r.cached) {
        journal->append(r.key, r.metrics);
      }
    }
  }

  // Device-aware worker sizing from the heaviest cell's launch shape.
  u32 requested = options.threads != 0 ? options.threads : spec.threads;
  if (requested == 0) {
    requested = threads_from_env(0);
  }
  sort::SortConfig heavy;
  std::size_t heavy_bytes = 0;
  for (const auto& cell : cells) {
    const sort::SortConfig launch =
        cell.engine->shape(cell.config, cell.n, cell.knobs).cfg;
    if (launch.shared_bytes() >= heavy_bytes) {
      heavy_bytes = launch.shared_bytes();
      heavy = launch;
    }
  }
  u32 threads = recommended_workers(requested, spec.device, heavy.b,
                                    heavy.shared_bytes());
  if (!misses.empty()) {
    threads = std::min<u32>(threads, static_cast<u32>(misses.size()));
  }
  threads = std::max(1u, threads);
  outcome.threads = threads;

  // Interrupt handling: an external cancel (wcmgen's signal handler) or
  // the "runtime.campaign.interrupt" failpoint drains the run — in-flight
  // cells finish and are journaled; queued cells are skipped.
  CancelSource local_cancel;
  CancelSource* cancel =
      options.cancel != nullptr ? options.cancel : &local_cancel;

  std::mutex mu;  // guards cache/journal writes and progress lines
  std::size_t finished = outcome.cache_hits + outcome.replayed;
  if (options.progress != nullptr) {
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto& r : runs) {
      if (r.cached || r.replayed) {
        *options.progress << "[" << (r.replayed ? "replayed" : "cached")
                          << "] " << r.cell.label << "\n";
      }
    }
  }

  std::vector<Job> jobs;
  jobs.reserve(misses.size());
  // A campaign submitted through wcmd runs under that request's trace
  // context; hand it to every cell so the per-cell spans stay in the
  // request's causal tree across the second thread hop.
  const telemetry::TraceContext campaign_trace =
      telemetry::current_trace_context();
  for (const std::size_t idx : misses) {
    jobs.push_back(Job{
        [&, idx] {
          WCM_SPAN("campaign.cell");
          gpusim::TraceRecorder recorder;
          gpusim::TraceRecorder* sink =
              trace_dir.empty() ? nullptr : &recorder;
          const analysis::SeriesPoint metrics =
              compute_cell(runs[idx].cell, spec.device, sink);
          if (sink != nullptr) {
            std::ostringstream name;
            name << "cell_";
            const std::string digits = std::to_string(idx);
            for (std::size_t pad = digits.size(); pad < 4; ++pad) {
              name << '0';
            }
            name << digits << ".wcmt";
            const auto path = std::filesystem::path(trace_dir) / name.str();
            std::ofstream os(path);
            WCM_CHECK_IO(os.is_open(), "cannot open trace output: " +
                                           path.string());
            gpusim::write_trace(os, recorder.trace());
            WCM_CHECK_IO(static_cast<bool>(os), "trace write failed: " +
                                                    path.string());
          }
          {
            const std::lock_guard<std::mutex> lock(mu);
            cache.insert(runs[idx].key, metrics);
            // A journal-append failure fails the cell (retry recomputes
            // it); `have` stays false until the record is sealed.
            if (journal.has_value()) {
              journal->append(runs[idx].key, metrics);
            }
            runs[idx].metrics = metrics;
            runs[idx].have = true;
            ++finished;
            if (options.progress != nullptr) {
              *options.progress << "[" << finished << "/" << runs.size()
                                << "] " << runs[idx].cell.label << ": "
                                << metrics.seconds << " s modeled\n";
            }
          }
          if (failpoint::should_fail("runtime.campaign.interrupt")) {
            cancel->cancel();  // chaos: drain as if a signal arrived
          }
        },
        runs[idx].cell.label, campaign_trace});
  }

  RunOptions run_opts;
  run_opts.threads = threads;
  run_opts.fail_fast = options.fail_fast;
  run_opts.retry = options.retry;
  if (run_opts.retry.seed == 0) {
    run_opts.retry.seed = spec.seed;
  }
  run_opts.cancel = cancel;
  const RunReport report = run(jobs, run_opts);

  // Persist whatever was computed before surfacing any failure: a partial
  // cache makes the retry cheaper.  A failed store costs only the speedup.
  if (caching && !misses.empty()) {
    try {
      cache.store(cache_path);
    } catch (const io_error& e) {
      warn_store_failed(cache_path, e);
    }
  }
  if (options.fail_fast) {
    report.rethrow_first_error();
  }

  for (std::size_t j = 0; j < misses.size(); ++j) {
    const JobOutcome& o = report.outcomes[j];
    switch (o.state) {
      case JobState::done:
        ++outcome.computed;
        break;
      case JobState::failed:
        outcome.quarantined.push_back(
            {misses[j], runs[misses[j]].cell.label, o.code, o.message,
             o.attempts});
        if (telemetry::enabled()) {
          telemetry::registry().counter("runtime.quarantine.jobs").add(1);
        }
        break;
      case JobState::skipped_cancelled:
        ++outcome.cancelled;
        break;
    }
  }

  if (outcome.interrupted()) {
    // Drained: no aggregate — the journal holds the resumable prefix.
    outcome.wall_seconds = wall.elapsed_seconds();
    return outcome;
  }

  {
    WCM_SPAN("campaign.aggregate");
    std::ostringstream json;
    write_aggregate_json(json, spec, runs, outcome.quarantined);
    outcome.json = json.str();
  }
  outcome.wall_seconds = wall.elapsed_seconds();
  return outcome;
}

void apply_env_overrides(SweepSpec& spec) {
  env_u32("WCM_MIN_K", spec.min_k);
  env_u32("WCM_MAX_K", spec.max_k);
  WCM_EXPECTS(spec.min_k >= 1 && spec.min_k <= spec.max_k,
              "WCM_MIN_K / WCM_MAX_K out of range");
}

std::vector<std::vector<sort::SortReport>> run_sweeps(
    const std::vector<SweepSpec>& specs, u32 threads) {
  WCM_SPAN("campaign.sweeps");
  if (specs.empty()) {
    return {};
  }
  struct CellRef {
    std::size_t spec_index;
    u32 k;
  };
  std::vector<CellRef> cells;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    WCM_EXPECTS(specs[s].min_k >= 1 && specs[s].min_k <= specs[s].max_k,
                "sweep k range out of order");
    for (u32 k = specs[s].min_k; k <= specs[s].max_k; ++k) {
      cells.push_back({s, k});
    }
  }

  u32 requested = threads != 0 ? threads : threads_from_env(0);
  const auto& first = specs.front();
  const u32 workers = std::min<u32>(
      std::max(1u, recommended_workers(requested, first.device,
                                       first.config.b,
                                       first.config.shared_bytes())),
      static_cast<u32>(cells.size()));

  auto reports = parallel_map(cells.size(), workers, [&](std::size_t i) {
    const auto& spec = specs[cells[i].spec_index];
    const u32 k = cells[i].k;
    const auto input = workload::make_input(
        spec.input, spec.config.tile() << k, spec.config, spec.seed + k);
    return sort::pairwise_merge_sort(input, spec.config, spec.device,
                                     spec.library);
  });

  std::vector<std::vector<sort::SortReport>> sweeps(specs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    sweeps[cells[i].spec_index].push_back(std::move(reports[i]));
  }
  return sweeps;
}

}  // namespace wcm::runtime
