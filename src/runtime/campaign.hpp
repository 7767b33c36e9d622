#pragma once
// Campaign layer: expand a JSON grid spec (engine x E x b x padding x
// input x size) into jobs, execute them on the runtime scheduler, reuse
// prior results through the WCMC cache, and aggregate everything into one
// deterministic JSON document via the existing analysis series machinery.
//
// Determinism contract (asserted by tests/test_runtime_campaign.cpp and
// the campaign_ci gate): the aggregated JSON is a pure function of the
// spec — cells are keyed and ordered by their expansion index, every
// stochastic input is seeded by fork_seed(spec.seed, hash(cell config)),
// and cached results are bit-identical to recomputed ones — so 1-thread
// and N-thread runs, and cold and warm caches, produce byte-identical
// output.
//
// The campaign JSON grammar and the WCMC cache format are documented in
// docs/RUNTIME.md.

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "runtime/cache.hpp"
#include "runtime/retry.hpp"
#include "sort/engines.hpp"
#include "workload/inputs.hpp"

namespace wcm::runtime {

class CancelSource;  // runtime/scheduler.hpp

/// One rectangle of the grid: the cartesian product of its list-valued
/// fields, sharing the scalar-valued ones.
struct GridEntry {
  const sort::Engine* engine = &sort::find_engine("pairwise");
  sort::EngineKnobs knobs;
  std::vector<u32> E{15};
  std::vector<u32> b{512};
  u32 w = 32;
  std::vector<u32> padding{0};
  std::vector<workload::InputKind> inputs{workload::InputKind::random};
  std::vector<u32> k{1};  ///< n = bE * 2^k
};

struct CampaignSpec {
  std::string name = "campaign";
  std::string device_name = "m4000";
  gpusim::Device device;  ///< resolved from device_name
  u64 seed = 1;
  u32 threads = 0;        ///< 0 = device-aware auto (see thread_pool.hpp)
  std::string trace_dir;  ///< record one WCMT per cell when non-empty
  std::vector<GridEntry> grid;
  /// Where the spec was loaded from; empty for in-memory specs.  The
  /// default cache file is `<source_path>.wcmc`.
  std::filesystem::path source_path;
};

/// Parse a campaign spec document.  Throws wcm::parse_error on JSON syntax
/// errors, unknown keys, or invalid field values.
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& json_text);

/// Read and parse a spec file.  Throws wcm::io_error for unreadable or
/// syntactically invalid files (a corrupt spec is a bad input *file*, exit
/// code 3 in wcmgen) and wcm::parse_error only for semantically invalid
/// values inside valid JSON.
[[nodiscard]] CampaignSpec load_campaign_spec(
    const std::filesystem::path& path);

/// One expanded grid cell, in deterministic expansion order.
struct CampaignCell {
  const sort::Engine* engine = nullptr;  ///< the grid entry's row
  /// The entry's knobs, with ways and digit_bits zeroed unless the engine
  /// reads them.
  sort::EngineKnobs knobs;
  sort::SortConfig config;
  workload::InputKind input = workload::InputKind::random;
  u32 k = 1;
  std::size_t n = 0;  ///< requested size (bE * 2^k)
  u64 seed = 0;       ///< fork_seed(spec.seed, hash(cell)); input seed
  std::string label;      ///< human-readable, used in progress lines
  std::string canonical;  ///< cache-key string (includes seed and device)
};

/// Expand the grid, checking every cell against its engine's shape rule
/// (sort::Engine::shape, the check the engine runs under) and its launch's
/// fit on the device — throws wcm::config_error before any cell runs.
/// Deterministic order: grid entries in spec order, then E, b, padding,
/// input, k in list order.
[[nodiscard]] std::vector<CampaignCell> expand(const CampaignSpec& spec);

struct CampaignOptions {
  u32 threads = 0;   ///< overrides spec.threads when non-zero
  bool use_cache = true;
  /// Cache file; empty = `<spec.source_path>.wcmc`, or no cache at all for
  /// in-memory specs.
  std::filesystem::path cache_path;
  std::ostream* progress = nullptr;  ///< per-cell progress lines; may be null
  std::string trace_dir;             ///< overrides spec.trace_dir when set
  /// Write-ahead journal of completed cells (WCMJ, runtime/journal.hpp);
  /// empty = no journal.  Ignored while traces are recorded (a replayed
  /// cell cannot reproduce its trace side effect).
  std::filesystem::path journal_path;
  /// Replay `journal_path` before scheduling: cells already journaled are
  /// not recomputed.  A journal from a different spec or code version is
  /// ignored (and rewritten).
  bool resume = false;
  /// Per-cell retry policy for transient failures; seed 0 = spec.seed.
  /// The default re-runs a failing cell twice before giving up.
  RetryPolicy retry{3};
  /// Restore the pre-quarantine behavior: first failing cell (by
  /// expansion index) cancels the rest and is rethrown.
  bool fail_fast = false;
  /// External cancellation (SIGINT/SIGTERM drain); may be null.  After
  /// cancel() the campaign finishes in-flight cells, flushes journal and
  /// cache, and returns with interrupted() true and an empty json.
  CancelSource* cancel = nullptr;
};

/// A cell that exhausted its retries (or failed permanently) while the
/// rest of the campaign completed.
struct QuarantinedCell {
  std::size_t index = 0;   ///< expansion index
  std::string label;       ///< CampaignCell::label
  errc code = errc::simulation_invariant;
  std::string message;     ///< final attempt's error text
  u32 attempts = 0;        ///< times the cell body ran
};

struct CampaignOutcome {
  std::string json;        ///< aggregated document (see docs/RUNTIME.md)
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t replayed = 0;   ///< cells restored from the journal
  std::size_t computed = 0;   ///< cells actually (re)computed to completion
  /// Cells isolated after exhausting retries, in expansion order; the
  /// campaign is *degraded* when non-empty (wcmgen exits 6).
  std::vector<QuarantinedCell> quarantined;
  std::size_t cancelled = 0;  ///< cells skipped by an interrupt drain
  u32 threads = 1;            ///< workers actually used
  double wall_seconds = 0.0;

  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }
  /// True when a cancel drained the run before every cell finished: json
  /// is empty and the journal (if any) holds the resumable prefix
  /// (wcmgen exits 7).
  [[nodiscard]] bool interrupted() const noexcept { return cancelled > 0; }
};

/// Run the campaign: journal replay (resume) and cache lookups, parallel
/// execution of the misses with retry/backoff, quarantine of cells that
/// exhaust their attempts (fail_fast instead rethrows the first failure by
/// expansion index), journal/cache write-back, aggregation.  The aggregate
/// of a resumed run is byte-identical to an uninterrupted one.
[[nodiscard]] CampaignOutcome run_campaign(const CampaignSpec& spec,
                                           const CampaignOptions& options);

/// Run several figure sweeps concurrently (one job per (sweep, size) cell)
/// and return each sweep's series in input order.  Seeds match
/// analysis::run_sweep exactly, so a ported bench prints the same numbers
/// as its serial ancestor.  `threads` 0 = WCM_THREADS env, else
/// device-aware auto.
[[nodiscard]] std::vector<std::vector<analysis::SeriesPoint>> run_sweeps(
    const std::vector<analysis::SweepSpec>& specs, u32 threads = 0);

}  // namespace wcm::runtime
