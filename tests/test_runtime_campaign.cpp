// Campaign-layer tests: spec parsing and validation, deterministic
// expansion with position-independent seeds, byte-identical output across
// thread counts and cache states, WCMC integration (hit/miss/invalidate),
// and the figure benches' run_sweeps against direct sorts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "runtime/campaign.hpp"
#include "runtime/scheduler.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace wcm::runtime {
namespace {

constexpr const char* kSmallSpec = R"({
  "name": "unit",
  "device": "m4000",
  "seed": 11,
  "grid": [
    {"engine": "pairwise", "E": 5, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2]}
  ]
})";

/// kSmallSpec's shape on the mgpu merge-path library.
constexpr const char* kMgpuSpec = R"({
  "name": "unit-mgpu",
  "device": "m4000",
  "seed": 7,
  "grid": [
    {"engine": "pairwise", "library": "mgpu", "E": 3, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2]}
  ]
})";

TEST(CampaignSpecParse, AcceptsTheFullGrammar) {
  const auto spec = parse_campaign_spec(R"({
    "name": "full",
    "device": "2080ti",
    "seed": 99,
    "threads": 2,
    "trace_dir": "traces",
    "grid": [
      {"engine": "multiway", "E": [3, 5], "b": 64, "w": 32, "padding": [0, 1],
       "input": "sorted", "k": [1], "ways": 8},
      {"engine": "radix", "digit_bits": 6},
      {"engine": "bitonic", "b": 128}
    ]
  })");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.device.name, gpusim::rtx_2080ti().name);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.trace_dir, "traces");
  ASSERT_EQ(spec.grid.size(), 3u);
  EXPECT_EQ(spec.grid[0].engine->name, "multiway");
  EXPECT_EQ(spec.grid[0].E, (std::vector<u32>{3, 5}));
  EXPECT_EQ(spec.grid[0].padding, (std::vector<u32>{0, 1}));
  EXPECT_EQ(spec.grid[0].knobs.ways, 8u);
  EXPECT_EQ(spec.grid[1].knobs.digit_bits, 6u);
  EXPECT_EQ(spec.grid[2].engine->name, "bitonic");
}

TEST(CampaignSpecParse, RejectsUnknownKeysAndValues) {
  EXPECT_THROW((void)parse_campaign_spec(R"({"grid": [{}], "spline": 1})"),
               parse_error);
  EXPECT_THROW(
      (void)parse_campaign_spec(R"({"grid": [{"engine": "quantum"}]})"),
      parse_error);
  EXPECT_THROW(
      (void)parse_campaign_spec(R"({"grid": [{"input": "adversarial"}]})"),
      parse_error);
  EXPECT_THROW((void)parse_campaign_spec(R"({"device": "voodoo2",
                                             "grid": [{}]})"),
               parse_error);
  EXPECT_THROW((void)parse_campaign_spec(R"({"grid": []})"), parse_error);
  EXPECT_THROW((void)parse_campaign_spec(R"({"name": "x"})"), parse_error);
  EXPECT_THROW((void)parse_campaign_spec("not json at all"), parse_error);
  EXPECT_THROW((void)parse_campaign_spec(R"({"grid": [{"k": [50]}]})"),
               parse_error);
}

TEST(CampaignSpecParse, LoadMapsProblemsToIoError) {
  const auto dir = std::filesystem::temp_directory_path();
  EXPECT_THROW((void)load_campaign_spec(dir / "wcm_missing_spec.json"),
               io_error);
  const auto bad = dir / "wcm_bad_spec.json";
  std::ofstream(bad) << "{ definitely not json";
  EXPECT_THROW((void)load_campaign_spec(bad), io_error);
  std::ofstream(bad) << R"({"grid": [{"engine": "quantum"}]})";
  EXPECT_THROW((void)load_campaign_spec(bad), io_error);
  std::filesystem::remove(bad);
}

TEST(CampaignExpand, DeterministicOrderAndPositionIndependentSeeds) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  // input varies before k (declaration order of the nesting).
  EXPECT_EQ(cells[0].input, workload::InputKind::random);
  EXPECT_EQ(cells[0].k, 1u);
  EXPECT_EQ(cells[1].k, 2u);
  EXPECT_EQ(cells[2].input, workload::InputKind::worst_case);
  EXPECT_EQ(cells[0].n, cells[0].config.tile() << 1);

  // Seeds are a function of (spec seed, cell config), not of grid
  // position: the same cell in a reordered/extended grid keeps its seed.
  const auto reordered = parse_campaign_spec(R"({
    "name": "unit", "device": "m4000", "seed": 11,
    "grid": [
      {"engine": "pairwise", "E": 7, "b": 64, "input": "sorted", "k": [3]},
      {"engine": "pairwise", "E": 5, "b": 64,
       "input": ["worst-case", "random"], "k": [2, 1]}
    ]
  })");
  const auto moved = expand(reordered);
  ASSERT_EQ(moved.size(), 5u);
  EXPECT_EQ(cells[0].seed, moved[4].seed);  // random k=1
  EXPECT_EQ(cells[3].seed, moved[1].seed);  // worst-case k=2
  EXPECT_NE(cells[0].seed, cells[1].seed);
  EXPECT_NE(cells[0].seed, cells[2].seed);
}

TEST(CampaignExpand, ValidatesCellsAgainstConfigAndDevice) {
  // b < 2w violates the SortConfig contract.
  auto bad_cfg = parse_campaign_spec(
      R"({"grid": [{"engine": "pairwise", "E": 5, "b": 32}]})");
  EXPECT_THROW((void)expand(bad_cfg), wcm::error);
  // A tile too large for shared memory must not fit the device.
  auto too_big = parse_campaign_spec(
      R"({"grid": [{"engine": "pairwise", "E": 1000, "b": 512}]})");
  EXPECT_THROW((void)expand(too_big), wcm::error);
  // Cells their engine's shape rule refuses are config errors up front,
  // not quarantined at run time: a bitonic power-of-two prefix shorter
  // than 2b, a one-way multiway merge, a zero-bit radix digit.
  for (const char* entry :
       {R"({"engine": "bitonic", "E": 1, "b": 64, "k": [0]})",
        R"({"engine": "multiway", "E": 5, "b": 64, "k": [1], "ways": 1})",
        R"({"engine": "radix", "E": 5, "b": 64, "k": [1], "digit_bits": 0})"}) {
    const auto refused = parse_campaign_spec(
        std::string(R"({"grid": [)") + entry + "]}");
    EXPECT_THROW((void)expand(refused), config_error) << entry;
  }
}

TEST(CampaignExpand, CanonicalStringsArePinnedPerEngine) {
  // The canonical string is the WCMC cache key and the input to the cell's
  // seed: a silent re-key would cold-start every cache.
  const auto spec = parse_campaign_spec(R"({
    "name": "pin", "device": "m4000", "seed": 5,
    "grid": [
      {"engine": "pairwise", "E": 5, "b": 64, "k": [1]},
      {"engine": "multiway", "E": 5, "b": 64, "k": [1], "ways": 2},
      {"engine": "bitonic", "E": 5, "b": 64, "k": [1]},
      {"engine": "radix", "E": 5, "b": 64, "k": [1], "digit_bits": 8}
    ]
  })");
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  const std::string head = "wcmc1|device=Quadro M4000|engine=";
  const std::string shape =
      "|lib=thrust|E=5|b=64|w=32|pad=0|refills=0|input=random|k=1|n=640";
  EXPECT_EQ(cells[0].canonical, head + "pairwise" + shape +
                                    "|ways=0|bits=0|seed=6381083369660494635");
  EXPECT_EQ(cells[1].canonical, head + "multiway" + shape +
                                    "|ways=2|bits=0|seed=9371436888769560007");
  EXPECT_EQ(cells[2].canonical, head + "bitonic" + shape +
                                    "|ways=0|bits=0|seed=7051672420383004039");
  EXPECT_EQ(cells[3].canonical,
            head + "radix" + shape +
                "|ways=0|bits=8|seed=16788372982590457524");
  EXPECT_EQ(cells[0].label, "pairwise/thrust E=5 b=64 w=32 pad=0 random k=1");
  EXPECT_EQ(cells[1].label,
            "multiway E=5 b=64 w=32 pad=0 ways=2 random k=1");
  EXPECT_EQ(cells[3].label, "radix E=5 b=64 w=32 pad=0 bits=8 random k=1");
}

TEST(CampaignRun, ByteIdenticalAcrossThreadCountsAndCacheStates) {
  for (const char* text : {kSmallSpec, kMgpuSpec}) {
    const auto spec = parse_campaign_spec(text);
    SCOPED_TRACE(spec.name);
    CampaignOptions serial;
    serial.threads = 1;
    serial.use_cache = false;
    const auto ref = run_campaign(spec, serial);
    EXPECT_EQ(ref.cells, 4u);
    EXPECT_EQ(ref.computed, 4u);
    EXPECT_EQ(ref.cache_hits, 0u);

    CampaignOptions parallel;
    parallel.threads = 4;
    parallel.use_cache = false;
    const auto wide = run_campaign(spec, parallel);
    EXPECT_EQ(wide.threads, 4u);
    EXPECT_EQ(ref.json, wide.json);  // the headline determinism guarantee

    // With a cache file: cold run computes, warm run hits 100%, output is
    // still byte-identical.
    const auto cache_path = std::filesystem::temp_directory_path() /
                            "wcm_campaign_unit.wcmc";
    std::filesystem::remove(cache_path);
    CampaignOptions cached;
    cached.threads = 4;
    cached.cache_path = cache_path;
    const auto cold = run_campaign(spec, cached);
    EXPECT_EQ(cold.computed, 4u);
    const auto warm = run_campaign(spec, cached);
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.cache_hits, 4u);
    EXPECT_EQ(ref.json, cold.json);
    EXPECT_EQ(ref.json, warm.json);

    // A code-version salt change invalidates every entry.
    setenv("WCM_CACHE_SALT", "unit-test-bump", 1);
    const auto invalidated = run_campaign(spec, cached);
    unsetenv("WCM_CACHE_SALT");
    EXPECT_EQ(invalidated.computed, 4u);
    EXPECT_EQ(invalidated.cache_hits, 0u);
    EXPECT_EQ(ref.json, invalidated.json);
    std::filesystem::remove(cache_path);
  }
}

TEST(CampaignRun, AggregateJsonCarriesSeriesAndSlowdowns) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  const auto outcome = run_campaign(spec, opts);
  EXPECT_NE(outcome.json.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(outcome.json.find("\"cells\":["), std::string::npos);
  EXPECT_NE(outcome.json.find("\"series\":["), std::string::npos);
  // random + worst-case at identical sizes -> one slowdown entry.
  EXPECT_NE(outcome.json.find("\"slowdowns\":[{"), std::string::npos);
  EXPECT_NE(outcome.json.find("\"peak_percent\":"), std::string::npos);
}

TEST(CampaignRun, TraceDirRecordsOneTracePerCell) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto dir = std::filesystem::temp_directory_path() /
                   "wcm_campaign_traces_unit";
  std::filesystem::remove_all(dir);
  CampaignOptions opts;
  opts.threads = 2;
  opts.use_cache = false;
  opts.trace_dir = dir.string();
  const auto outcome = run_campaign(spec, opts);
  EXPECT_EQ(outcome.computed, 4u);
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    traces += entry.path().extension() == ".wcmt" ? 1u : 0u;
  }
  EXPECT_EQ(traces, 4u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, AllEnginesExecute) {
  // One cell per sorting row of the engine table; each engine reads only
  // its own knobs, so every entry may carry them all.
  std::string grid;
  std::vector<std::string> names;
  for (const sort::Engine& engine : sort::engines()) {
    if (!engine.sorts()) {
      continue;
    }
    names.emplace_back(engine.name);
    grid += std::string(grid.empty() ? "" : ",") + R"({"engine": ")" +
            names.back() +
            R"(", "E": 5, "b": 64, "k": [1], "ways": 2, "digit_bits": 8})";
  }
  const auto spec = parse_campaign_spec(
      R"({"name": "engines", "device": "m4000", "seed": 5, "grid": [)" +
      grid + "]}");
  CampaignOptions opts;
  opts.threads = 2;
  opts.use_cache = false;
  const auto outcome = run_campaign(spec, opts);
  EXPECT_EQ(outcome.cells, names.size());
  EXPECT_TRUE(outcome.quarantined.empty());
  for (const std::string& engine : names) {
    EXPECT_NE(outcome.json.find("\"engine\":\"" + engine + "\""),
              std::string::npos)
        << engine;
  }
}

TEST(CampaignRun, ControlBytesInTheNameStayValidJson) {
  const auto spec = parse_campaign_spec(R"({
    "name": "a\tb",
    "grid": [{"engine": "pairwise", "E": 5, "b": 64, "k": [1]}]
  })");
  ASSERT_EQ(spec.name, "a\tb");
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  const auto outcome = run_campaign(spec, opts);
  const json::Value doc = json::parse(outcome.json);
  EXPECT_EQ(doc.as_object().at("campaign").as_string(), "a\tb");
}

/// Unique journal path per test (gtest runs each TEST in its own ctest
/// process, but the binary can also be run whole).
std::filesystem::path temp_journal(const char* name) {
  const auto path = std::filesystem::temp_directory_path() /
                    (std::string("wcm_campaign_") + name + ".wcmj");
  std::filesystem::remove(path);
  return path;
}

TEST(CampaignJournal, ResumeIsByteIdenticalToAnUninterruptedRun) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto jpath = temp_journal("resume");

  CampaignOptions plain;
  plain.threads = 1;
  plain.use_cache = false;
  const auto ref = run_campaign(spec, plain);

  CampaignOptions journaled = plain;
  journaled.journal_path = jpath;
  const auto first = run_campaign(spec, journaled);
  EXPECT_EQ(first.computed, 4u);
  EXPECT_EQ(first.json, ref.json);

  // Full resume: every cell replays, nothing recomputes, same bytes.
  CampaignOptions resume = journaled;
  resume.resume = true;
  const auto resumed = run_campaign(spec, resume);
  EXPECT_EQ(resumed.computed, 0u);
  EXPECT_EQ(resumed.replayed, 4u);
  EXPECT_EQ(resumed.json, ref.json);

  // Partial resume (the crash scenario): chop the journal to two sealed
  // records; the resumed run replays those, recomputes the rest, and the
  // aggregate is still byte-identical.
  std::filesystem::resize_file(jpath, 32 + 2 * 64);
  const auto partial = run_campaign(spec, resume);
  EXPECT_EQ(partial.replayed, 2u);
  EXPECT_EQ(partial.computed, 2u);
  EXPECT_EQ(partial.json, ref.json);
  std::filesystem::remove(jpath);
}

TEST(CampaignJournal, FingerprintMismatchStartsFresh) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto jpath = temp_journal("fingerprint");
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  opts.journal_path = jpath;
  (void)run_campaign(spec, opts);

  // Same grid, different seed: every canonical string changes, so the
  // journal belongs to a different campaign and must not replay.
  auto edited_text = std::string(kSmallSpec);
  const auto at = edited_text.find("\"seed\": 11");
  ASSERT_NE(at, std::string::npos);
  edited_text.replace(at, 10, "\"seed\": 12");
  const auto edited = parse_campaign_spec(edited_text);
  opts.resume = true;
  const auto crossed = run_campaign(edited, opts);
  EXPECT_EQ(crossed.replayed, 0u);
  EXPECT_EQ(crossed.computed, 4u);

  // The journal was rewritten for the edited campaign: now it replays.
  const auto again = run_campaign(edited, opts);
  EXPECT_EQ(again.replayed, 4u);
  EXPECT_EQ(again.computed, 0u);
  EXPECT_EQ(again.json, crossed.json);
  std::filesystem::remove(jpath);
}

TEST(CampaignFaults, PermanentFaultQuarantinesInsteadOfFailingFast) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  failpoint::scoped_arm fp("runtime.worker.job");  // every attempt fails
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  const auto outcome = run_campaign(spec, opts);
  EXPECT_TRUE(outcome.degraded());
  EXPECT_FALSE(outcome.interrupted());
  EXPECT_EQ(outcome.computed, 0u);
  ASSERT_EQ(outcome.quarantined.size(), 4u);
  for (const auto& q : outcome.quarantined) {
    EXPECT_EQ(q.attempts, 3u);  // default policy: two retries
    EXPECT_FALSE(q.label.empty());
    EXPECT_NE(q.message.find("runtime.worker.job"), std::string::npos);
  }
  // The aggregate is still written: empty cells, populated quarantine.
  EXPECT_NE(outcome.json.find("\"cells\":[]"), std::string::npos);
  EXPECT_NE(outcome.json.find("\"quarantined\":[{"), std::string::npos);
  EXPECT_NE(outcome.json.find("\"attempts\":3"), std::string::npos);
}

// The runner reports a quarantined cell `failed`; the campaign's fold
// counts it on runtime.quarantine.jobs, once per quarantined cell.
TEST(CampaignFaults, QuarantinedCellsAreCountedOncePerCell) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  CampaignOutcome outcome;
  {
    failpoint::scoped_arm fp("runtime.worker.job");  // every attempt fails
    CampaignOptions opts;
    opts.threads = 2;
    opts.use_cache = false;
    outcome = run_campaign(spec, opts);
  }
  const auto snap = telemetry::registry().snapshot();
  telemetry::set_enabled(false);
  telemetry::registry().reset();
  EXPECT_TRUE(outcome.degraded());
  ASSERT_EQ(outcome.quarantined.size(), 4u);
  EXPECT_EQ(snap.counter_total("runtime.quarantine.jobs"),
            outcome.quarantined.size());
  EXPECT_EQ(snap.counter_total("runtime.scheduler.jobs.failed"),
            outcome.quarantined.size());
}

TEST(CampaignFaults, TransientFaultIsRetriedToSuccess) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  CampaignOptions plain;
  plain.threads = 1;
  plain.use_cache = false;
  const auto ref = run_campaign(spec, plain);

  // One injected failure: the first attempt of the first cell dies, the
  // retry recomputes it, and the output converges to the clean bytes.
  failpoint::scoped_arm fp("runtime.worker.job", /*skip=*/0, /*times=*/1);
  const auto retried = run_campaign(spec, plain);
  EXPECT_EQ(retried.computed, 4u);
  EXPECT_TRUE(retried.quarantined.empty());
  EXPECT_EQ(retried.json, ref.json);
}

TEST(CampaignFaults, FailFastRestoresTheOldContract) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  failpoint::scoped_arm fp("runtime.worker.job");
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  opts.fail_fast = true;
  EXPECT_THROW((void)run_campaign(spec, opts), wcm::error);
}

TEST(CampaignFaults, CancelledCampaignDrainsAndStaysResumable) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto jpath = temp_journal("cancel");
  CancelSource cancel;
  cancel.cancel();  // as if SIGINT arrived before admission
  CampaignOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  opts.journal_path = jpath;
  opts.cancel = &cancel;
  const auto interrupted = run_campaign(spec, opts);
  EXPECT_TRUE(interrupted.interrupted());
  EXPECT_EQ(interrupted.cancelled, 4u);
  EXPECT_EQ(interrupted.computed, 0u);
  EXPECT_TRUE(interrupted.json.empty());  // no aggregate: resume instead

  CampaignOptions plain;
  plain.threads = 1;
  plain.use_cache = false;
  const auto ref = run_campaign(spec, plain);
  CampaignOptions resume = opts;
  resume.cancel = nullptr;
  resume.resume = true;
  const auto resumed = run_campaign(spec, resume);
  EXPECT_FALSE(resumed.interrupted());
  EXPECT_EQ(resumed.json, ref.json);
  std::filesystem::remove(jpath);
}

// A WCMC cache only accelerates: a store that fails after every cell is
// computed costs the speedup, not the aggregate, and the previous cache
// file stays byte for byte (the store writes a temporary and renames it).
TEST(CampaignFaults, FailedCacheStoreStillWritesTheAggregate) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  CampaignOptions plain;
  plain.threads = 1;
  plain.use_cache = false;
  const auto ref = run_campaign(spec, plain);

  const auto cache_path =
      std::filesystem::temp_directory_path() / "wcm_campaign_store_fail.wcmc";
  std::filesystem::remove(cache_path);
  CampaignOptions cached;
  cached.threads = 1;
  cached.cache_path = cache_path;
  // Seed the cache with half of the grid, so the armed run has new cells
  // to store.
  {
    const auto half = parse_campaign_spec(R"({
      "name": "unit", "device": "m4000", "seed": 11,
      "grid": [{"engine": "pairwise", "E": 5, "b": 64,
                "input": ["random", "worst-case"], "k": [1]}]})");
    (void)run_campaign(half, cached);
  }
  const auto bytes_of = [&] {
    std::ifstream is(cache_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  const std::string before = bytes_of();
  ASSERT_FALSE(before.empty());

  for (const bool fail_fast : {false, true}) {
    SCOPED_TRACE(fail_fast ? "fail_fast" : "quarantine");
    const failpoint::scoped_arm fp("runtime.cache.store");
    CampaignOptions armed = cached;
    armed.fail_fast = fail_fast;
    const auto outcome = run_campaign(spec, armed);
    EXPECT_EQ(outcome.cache_hits, 2u);
    EXPECT_EQ(outcome.computed, 2u);
    EXPECT_FALSE(outcome.degraded());
    EXPECT_EQ(outcome.json, ref.json);
    EXPECT_EQ(bytes_of(), before);
  }
  std::filesystem::remove(cache_path);
}

// Under fail_fast the first cell error still surfaces, not the store's.
TEST(CampaignFaults, FailFastRethrowsTheCellErrorOverAFailedStore) {
  const auto spec = parse_campaign_spec(kSmallSpec);
  const auto cache_path =
      std::filesystem::temp_directory_path() / "wcm_campaign_store_ff.wcmc";
  std::filesystem::remove(cache_path);
  const failpoint::scoped_arm job("runtime.worker.job", /*skip=*/1);
  const failpoint::scoped_arm store("runtime.cache.store");
  CampaignOptions opts;
  opts.threads = 1;
  opts.cache_path = cache_path;
  opts.fail_fast = true;
  try {
    (void)run_campaign(spec, opts);
    FAIL() << "the failed cell was not rethrown";
  } catch (const wcm::error& e) {
    EXPECT_NE(e.context().find("runtime.worker.job"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(cache_path));
}

// Every cell of run_sweeps is the serial, direct sort of its own input
// (seed + k, n = tile << k), whatever the worker count.
TEST(RunSweeps, MatchesTheSerialSweepExactly) {
  SweepSpec spec;
  spec.device = gpusim::quadro_m4000();
  spec.config = sort::SortConfig{5, 64, 32};
  spec.input = workload::InputKind::worst_case;
  spec.min_k = 1;
  spec.max_k = 3;
  spec.seed = 21;

  for (const u32 threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto sweeps = run_sweeps({spec, spec}, threads);
    ASSERT_EQ(sweeps.size(), 2u);
    for (const auto& sweep : sweeps) {
      ASSERT_EQ(sweep.size(), 3u);
      for (u32 k = spec.min_k; k <= spec.max_k; ++k) {
        const auto& cell = sweep[k - spec.min_k];
        const auto direct = sort::pairwise_merge_sort(
            workload::make_input(spec.input, spec.config.tile() << k,
                                 spec.config, spec.seed + k),
            spec.config, spec.device, spec.library);
        EXPECT_EQ(cell.seconds(), direct.seconds());
        EXPECT_EQ(cell.conflicts_per_element(),
                  direct.conflicts_per_element());
        EXPECT_EQ(cell.beta2(), direct.beta2());
        EXPECT_EQ(cell.totals, direct.totals);
      }
    }
  }
}

TEST(Sweep, RunsAndGrowsGeometrically) {
  SweepSpec spec;
  spec.device = gpusim::quadro_m4000();
  spec.config = sort::SortConfig{5, 64, 32};
  spec.input = workload::InputKind::random;
  spec.min_k = 1;
  spec.max_k = 3;
  const auto sweeps = run_sweeps({spec}, 1);
  ASSERT_EQ(sweeps.size(), 1u);
  const auto& s = sweeps[0];
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].n, spec.config.tile() * 2);
  EXPECT_EQ(s[1].n, spec.config.tile() * 4);
  EXPECT_EQ(s[2].n, spec.config.tile() * 8);
  for (const auto& cell : s) {
    const auto p = analysis::point_of(cell);
    EXPECT_EQ(p.n, cell.n);
    EXPECT_GT(p.throughput, 0.0);
    EXPECT_GT(p.conflicts_per_elem, 0.0);
    EXPECT_EQ(p.beta1, cell.beta1());
    EXPECT_GE(p.beta2, 1.0);
  }
}

TEST(Sweep, EnvOverrides) {
  SweepSpec spec;
  spec.min_k = 1;
  spec.max_k = 8;
  ASSERT_EQ(setenv("WCM_MIN_K", "2", 1), 0);
  ASSERT_EQ(setenv("WCM_MAX_K", "3", 1), 0);
  apply_env_overrides(spec);
  EXPECT_EQ(spec.min_k, 2u);
  EXPECT_EQ(spec.max_k, 3u);
  ASSERT_EQ(setenv("WCM_MIN_K", "5", 1), 0);  // min > max must throw
  EXPECT_THROW(apply_env_overrides(spec), contract_error);
  unsetenv("WCM_MIN_K");
  unsetenv("WCM_MAX_K");
}

}  // namespace
}  // namespace wcm::runtime
