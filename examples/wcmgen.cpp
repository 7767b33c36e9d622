// wcmgen — command-line front end for the library: generate, inspect, and
// measure adversarial inputs, prove and certify conflict bounds, lint
// traces, run campaigns, and serve them all as the wcmd daemon, without
// writing any C++.  `wcmgen --help` prints the synopsis (kUsage below).
//
// Every subcommand is one row of the command table (commands()): its
// declared flags and its handler.  The flags of the subcommands that
// mirror a daemon op come from that op's param declaration
// (serve/ops.hpp), and `serve` is the same entry wcmd runs.
//
// Exit codes (documented in docs/API.md), derived from
// serve::error_type_of for failures:
//   0 success
//   1 findings reported (analyze, prove, and verify subcommands only)
//   2 usage error (unknown subcommand/flag, unparseable or unknown value)
//   3 bad input file (missing, truncated, corrupt WCMI/WCMT)
//   4 invalid configuration (E/b/w constraint violated)
//   5 internal error (simulator invariant break or any other exception)
//   6 degraded campaign (cells quarantined; aggregate still written)
//   7 interrupted campaign (SIGINT/SIGTERM drain; resume with --resume)
//
// `serve` exits 0 after a clean drain (every request answered) and 5 when
// the drain invariant is violated; socket errors map to 3 as usual.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/json_export.hpp"
#include "analyze/lint.hpp"
#include "analyze/passes/verify.hpp"
#include "core/conflict_model.hpp"
#include "gpusim/trace.hpp"
#include "runtime/cache.hpp"
#include "runtime/campaign.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "sort/engines.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/version.hpp"
#include "workload/inputs.hpp"
#include "workload/inversions.hpp"
#include "workload/io.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcmgen — worst-case input engineering for GPU pairwise merge sort

usage: wcmgen <subcommand> [--flags]

subcommands:
  generate   build a worst-case permutation
             --E n --b n [--w n] [--padding n]
             [--layout linear|xor|rotation] [--k n] [--seed n]
             [--strategy front-to-back|back-to-front|outside-in]
             [--intra] [--rounds n] [--out file.wcmi] [--csv]
  evaluate   score one worst-case warp against the closed forms
             --E n [--w n] [--side L|R] [--strategy name]
  sort       run a simulated sort and report conflicts/time: a per-round
             table of modeled time, beta1/beta2, replays, conflicts per
             element, global transactions and search steps, then the
             modeled-time split
             --E n --b n [--w n] [--padding n] [--k n] [--seed n]
             [--layout linear|xor|rotation]
             [--input random|sorted|reversed|nearly-sorted|worst-case]
             [--device m4000|2080ti|gtx770] [--library thrust|mgpu]
             [--algorithm pairwise|multiway|bitonic|radix|shearsort]
             [--ways n] [--digit-bits n] [--json]
             [--trace-out file.wcmt]
  inspect    validate and summarize a WCMI file
             --in file.wcmi
  analyze    lint recorded shared-memory traces (races, bounds, strides;
             see docs/LINT.md)
             file.wcmt [more...] [--in file.wcmt] [--json] [--pad n]
             [--layout linear|xor|rotation] [--no-cross-check]
  prove      derive symbolic bank-conflict bounds for the sort engines,
             valid for every E in the declared range, without executing
             any trace; cross-checks Theorems 3 and 9 (docs/LINT.md).
             --trace also certifies a recorded trace against the derived
             bounds (needs a single --engine).
             --certify upgrades the bounds to a machine-checkable
             certificate over a (b, pad) grid: every statement proved
             conflict-free, or a DMM-replay-confirmed counterexample
             [--engine blocksort|block-merge|pairwise|multiway|bitonic|
              radix|scan|shearsort|all] [--w n] [--b n] [--pad n]
             [--layout linear|xor|rotation] [--E-min n] [--E-max n]
             [--any-E] [--ways k] [--digit-bits n] [--json]
             [--trace file.wcmt] [--certify] [--bs n,n,...]
             [--pads n,n,...]
  verify     statically verify the engines' access-pattern declarations
             across warp widths: barrier uniformity, def-use (no
             uninitialized or out-of-bounds shared-memory access) for
             every E in range, parametric-w conflict bounds, the
             non-coprime gcd(w,E) breakdown sweep of Theorems 3/9, and a
             static-vs-dynamic differential gate (docs/LINT.md); the
             report is digest-sealed like prove --certify
             [--engine name|all] [--ws n,n,...] [--b n] [--pad n]
             [--layout linear|xor|rotation] [--E-min n] [--E-max n]
             [--odd-E] [--ways k] [--digit-bits n] [--no-differential]
             [--json]
  visualize  render one warp's bank matrix: for co-prime 3 <= E < w the
             worst-case construction with its aligned count, per-step
             serialization and conflict heatmap; for any other E <= w
             the sorted-order warp (the paper's Fig. 1)
             --E n [--w n] [--strategy name]
  campaign   expand a JSON grid spec into cells and run them on the
             parallel runtime with result caching, a crash-safe journal,
             retry/quarantine fault tolerance, and graceful SIGINT/SIGTERM
             drain (docs/RUNTIME.md)
             spec.json [--threads n] [--no-cache] [--cache file.wcmc]
             [--out file.json] [--trace-dir dir] [--quiet]
             [--journal file.wcmj] [--resume] [--retries n] [--fail-fast]
  profile    run any invocation under telemetry: span tracing to a
             Chrome/Perfetto trace plus a metrics summary table
             (docs/TELEMETRY.md); exit code is the wrapped command's
             profile [--telemetry trace.json] [--metrics metrics.json]
               <subcommand + its flags>            wrap an invocation, or
               --engine pairwise|multiway|bitonic|radix|shearsort
               --adversarial small-E|large-E [--k n] [--seed n]
               [--device m4000|2080ti|gtx770] [--json]
                                                   canned adversarial sort
  serve      run the wcmd daemon in-process: accept line-delimited JSON
             requests over a Unix-domain socket with request coalescing,
             batched scheduling, and a multi-tenant response cache
             (docs/SERVE.md); SIGINT/SIGTERM drain gracefully
             [--socket path|@name] [--data-dir dir] [--threads n]
             [--queue-max n] [--batch-max n] [--max-connections n]
             [--eventlog file.jsonl] [--quiet]
  metrics    fetch a running daemon's metrics over its socket and print
             them (docs/TELEMETRY.md "Exposition formats"); --format
             prometheus emits Prometheus text exposition 0.0.4
             [--socket path|@name] [--format json|text|prometheus]
             [--timeout-ms n]
  version    print the release version, the git describe this binary was
             built from, and the response-cache salt (also --version / -V)
  help       print this message (also --help / -h)

exit codes: 0 ok, 1 findings (analyze/prove/verify), 2 usage, 3 bad input
            file,
            4 bad configuration, 5 internal error (or a violated serve
            drain invariant), 6 degraded campaign (quarantined cells),
            7 interrupted campaign (resumable)
)";

/// `base` plus every flag of `more` it does not already declare.
std::vector<cli::Flag> merged(std::vector<cli::Flag> base,
                              const std::vector<cli::Flag>& more) {
  for (const cli::Flag& f : more) {
    bool present = false;
    for (const cli::Flag& b : base) {
      present = present || b.name == f.name;
    }
    if (!present) {
      base.push_back(f);
    }
  }
  return base;
}

core::AlignmentStrategy strategy_from(const cli::Args& a) {
  return core::parse_alignment_strategy(a.get("strategy", "front-to-back"));
}

int cmd_generate(const cli::Args& a) {
  serve::GenerateParams p;
  p.k = 8;  // the CLI's default size; the daemon op defaults to 4
  serve::read_flags(a, p);
  const sort::SortConfig& cfg = p.cfg;
  cfg.validate();
  const std::size_t n = p.n();
  core::AttackOptions opts = p.attack_options();
  opts.max_attacked_rounds = static_cast<std::size_t>(
      a.get_u64("rounds", opts.max_attacked_rounds));

  const auto input = core::worst_case_input(n, cfg, opts);
  std::cout << "generated " << n << " keys for " << cfg.to_string()
            << " (attacking "
            << std::min<std::size_t>(opts.max_attacked_rounds,
                                     core::attacked_round_count(n, cfg))
            << " of " << core::attacked_round_count(n, cfg)
            << " global rounds, predicted beta_2 = "
            << core::predicted_beta2(cfg.w, cfg.E) << ")\n";
  std::cout << "inversion fraction: "
            << workload::inversion_fraction(input) << "\n";

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    workload::write_binary(out, input);
    std::cout << "wrote " << out << "\n";
    if (a.has("csv")) {
      workload::write_csv(out + ".csv", input);
      std::cout << "wrote " << out << ".csv\n";
    }
  } else {
    std::cout << "first keys:";
    for (std::size_t i = 0; i < std::min<std::size_t>(16, n); ++i) {
      std::cout << ' ' << input[i];
    }
    std::cout << " ...\n(use --out file.wcmi to save)\n";
  }
  return 0;
}

int cmd_evaluate(const cli::Args& a) {
  const u32 w = a.get_u32("w", 32);
  const u32 e = a.get_u32("E", 15);
  const auto side = cli::parse_choice<core::WarpSide>(
      "--side", a.get("side", "L"),
      {{"L", core::WarpSide::L}, {"R", core::WarpSide::R}});
  const auto strategy = strategy_from(a);
  const auto wa = core::worst_case_warp(w, e, side, strategy);
  const u32 s = core::alignment_window_start(w, e, strategy);
  const auto eval = core::evaluate_warp(wa, s);
  std::cout << "w=" << w << " E=" << e << " side="
            << (side == core::WarpSide::L ? "L" : "R") << " strategy="
            << core::to_string(strategy) << "\n"
            << "aligned " << eval.aligned << " / " << w * e
            << " (closed form " << core::aligned_worst_case(w, e) << ")\n"
            << "serialization " << eval.totals.serialization << " cycles, "
            << eval.totals.replays << " replays, effective parallelism "
            << w << " -> " << core::effective_parallelism(w, e) << "\n";
  return 0;
}

int cmd_sort(const cli::Args& a) {
  sort::SortConfig cfg;
  serve::read_flags(a, cfg);
  cfg.validate();
  const std::string trace_out = a.get("trace-out", "");
  gpusim::TraceRecorder recorder;
  if (!trace_out.empty()) {
    cfg.trace_sink = &recorder;
  }
  const auto dev = gpusim::parse_device(a.get("device", "m4000"));
  const u32 k = static_cast<u32>(a.get_u64("k", 6, 40));  // n = bE * 2^k
  const std::size_t n = cfg.tile() << k;
  const sort::Engine& engine =
      sort::find_sorting_engine(a.get("algorithm", "pairwise"));
  sort::EngineKnobs knobs;
  knobs.library = sort::parse_library(a.get("library", "thrust"));
  knobs.ways = a.get_u32("ways", knobs.ways);
  knobs.digit_bits = a.get_u32("digit-bits", knobs.digit_bits);
  const auto kind = workload::parse_input_kind(a.get("input", "worst-case"));

  const auto input = workload::make_input(kind, n, cfg, a.get_u64("seed", 1));
  const sort::SortReport report = engine.run(input, cfg, dev, knobs);
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      throw io_error("cannot open trace output file", trace_out);
    }
    gpusim::write_trace(os, recorder.trace());
    std::cerr << "wrote " << recorder.trace().steps.size()
              << " trace steps to " << trace_out << "\n";
  }
  if (a.has("json")) {
    analysis::write_report_json(std::cout, report);
    std::cout << "\n";
    return 0;
  }
  // The simulator's per-kernel profile (what nv-nsight-cu-cli reports for
  // a real sort): one row per round, then where the modeled time went.
  std::cout << report.summary() << "\n\n";
  Table t({"kernel", "time_ms", "beta1", "beta2", "replays", "conflicts/elem",
           "global_txn", "search_steps"});
  for (const auto& r : report.rounds) {
    t.new_row()
        .add(r.name)
        .add(r.modeled_seconds * 1e3, 4)
        .add(gpusim::beta1(r.kernel), 2)
        .add(gpusim::beta2(r.kernel), 2)
        .add(r.kernel.shared.replays)
        .add(gpusim::conflicts_per_element(r.kernel), 3)
        .add(r.kernel.global_transactions)
        .add(r.kernel.binary_search_steps);
  }
  t.print(std::cout);
  const auto& time = report.total_time;
  std::cout << "\ntime split: bandwidth " << time.t_bandwidth * 1e3
            << "ms, shared " << time.t_shared * 1e3 << "ms, compute "
            << time.t_compute * 1e3 << "ms, latency "
            << time.t_latency * 1e3 << "ms, overhead "
            << time.t_overhead * 1e3 << "ms\n";
  return 0;
}

int cmd_inspect(const cli::Args& a) {
  const std::string in = a.get("in", "");
  if (in.empty()) {
    throw parse_error("inspect requires --in file.wcmi");
  }
  const auto keys = workload::read_binary(in);
  std::cout << in << ": " << keys.size() << " keys\n";
  if (!keys.empty()) {
    std::cout << "inversion fraction: "
              << workload::inversion_fraction(keys) << "\n"
              << "permutation of 0..n-1: "
              << (workload::is_permutation_of_iota(keys) ? "yes" : "no")
              << "\n";
    std::cout << "first keys:";
    for (std::size_t i = 0; i < std::min<std::size_t>(16, keys.size()); ++i) {
      std::cout << ' ' << keys[i];
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_analyze(const cli::Args& a) {
  std::vector<std::string> files;
  if (a.has("in")) {
    files.push_back(a.get("in", ""));
  }
  files.insert(files.end(), a.operands().begin(), a.operands().end());
  if (files.empty()) {
    throw parse_error(
        "analyze requires trace files: wcmgen analyze file.wcmt [more...]");
  }
  analyze::LintOptions opts;
  opts.json = a.has("json");
  opts.analysis.pad = a.get_u32("pad", opts.analysis.pad);
  opts.analysis.layout = gpusim::parse_layout_kind(
      a.get("layout", gpusim::to_string(opts.analysis.layout)));
  opts.analysis.cross_check = !a.has("no-cross-check");
  return analyze::run_lint(files, opts, std::cout, std::cerr);
}

/// Certify a recorded trace against the bounds proved for its engine: the
/// static/dynamic cross-check the differential fuzzer runs on every trial.
void certify_trace_file(const std::string& path,
                        analyze::symbolic::ProveReport& report) {
  std::ifstream is(path);
  if (!is) {
    throw io_error("cannot open trace file", path);
  }
  gpusim::Trace trace;
  try {
    trace = gpusim::read_trace(is);
  } catch (const parse_error& e) {
    throw io_error(std::string("corrupt trace: ") + e.what(), path);
  }
  analyze::symbolic::append_findings(
      report, analyze::symbolic::certify_trace(trace, report.engines.at(0)));
}

int cmd_prove(const cli::Args& a) {
  serve::ProveParams prove;
  serve::read_flags(a, prove);
  const bool json = a.has("json");
  // Both modes run every engine unless --engine names one.
  const std::vector<std::string> engines = serve::expand_engines(prove.engine);
  if (a.has("certify")) {
    // Certification mode: universally quantified conflict-freedom over a
    // (b, pad) grid, or a replay-confirmed counterexample (docs/THEORY.md).
    if (a.has("trace")) {
      throw parse_error("--trace certifies against prove's bounds "
                        "(drop --certify)");
    }
    serve::CertifyParams p;
    serve::read_flags(a, p);
    // The grid axes default to the scalar --b/--pad.
    if (!a.has("bs") && a.has("b")) {
      p.opts.bs = cli::parse_u32_list("--b", a.get("b", ""));
    }
    if (!a.has("pads") && a.has("pad")) {
      p.opts.pads = cli::parse_u32_list("--pad", a.get("pad", ""));
    }
    p.opts.json = json;
    bool all_certified = true;
    for (const auto& name : engines) {
      const auto cert = analyze::symbolic::certify_engine(name, p.opts);
      if (json) {
        // One JSON document per engine, one per line (NDJSON for "all").
        analyze::symbolic::render_json(std::cout, cert);
      } else {
        analyze::symbolic::render_text(std::cout, cert);
      }
      all_certified = all_certified && cert.certified;
    }
    return all_certified ? 0 : 1;
  }
  if (a.has("bs") || a.has("pads")) {
    throw parse_error("--bs/--pads are grid axes of certification mode "
                      "(add --certify, or use scalar --b/--pad)");
  }
  if (a.has("trace") && engines.size() != 1) {
    throw parse_error("--trace requires a single --engine to certify against");
  }
  prove.opts.json = json;
  auto report = analyze::symbolic::prove(engines, prove.opts);
  if (a.has("trace")) {
    certify_trace_file(a.get("trace", ""), report);
  }
  if (json) {
    analyze::symbolic::render_json(std::cout, report);
  } else {
    analyze::symbolic::render_text(std::cout, report);
  }
  return report.findings.empty() ? 0 : 1;
}

int cmd_verify(const cli::Args& a) {
  // The defaults deliberately exceed the conflict prover's E < w domain:
  // the def-use and barrier passes are universal over the whole range,
  // the conflict-bound pass clamps itself to the model's regime.
  analyze::passes::VerifyOptions opts;
  if (a.has("ws")) {
    opts.ws = cli::parse_u32_list("--ws", a.get("ws", ""));
  }
  for (const u32 w : opts.ws) {
    if (w < 1) {
      throw parse_error("--ws values must be >= 1");
    }
  }
  opts.b = a.get_u32("b", opts.b);
  opts.pad = a.get_u32("pad", opts.pad);
  opts.layout = gpusim::parse_layout_kind(
      a.get("layout", gpusim::to_string(opts.layout)));
  opts.e_min = a.get_u32("E-min", opts.e_min);
  opts.e_max = a.get_u32("E-max", opts.e_max);
  opts.ways = a.get_u32("ways", opts.ways);
  opts.digit_bits = a.get_u32("digit-bits", opts.digit_bits);
  // verify defaults to every E (the static claims are universal); --odd-E
  // restricts to the paper's odd-E congruence like prove's default.
  opts.any_e = !a.has("odd-E");
  opts.differential = !a.has("no-differential");
  opts.json = a.has("json");
  if (opts.e_min < 1 || opts.e_min > opts.e_max) {
    throw parse_error("verify needs 1 <= --E-min <= --E-max");
  }
  const auto report = analyze::passes::run_verify(
      serve::expand_engines(a.get("engine", "all")), opts);
  if (opts.json) {
    analyze::passes::render_json(std::cout, report);
  } else {
    analyze::passes::render_text(std::cout, report);
  }
  return report.proved && report.differential_ok ? 0 : 1;
}

int cmd_visualize(const cli::Args& a) {
  const u32 w = a.get_u32("w", 16);
  const u32 e = a.get_u32("E", 7);
  const auto strategy = strategy_from(a);
  const auto regime = core::classify_e(w, e);
  if (regime != core::ERegime::small && regime != core::ERegime::large) {
    // Sorted order (the Figure 1 situation): every d = gcd(w, E)-th chunk
    // aligns.
    const auto wa = core::sorted_order_warp(w, e);
    std::cout << "Sorted order, w=" << w << ", E=" << e << " (gcd = "
              << gcd(w, e) << "):\n"
              << core::render_warp(wa) << "aligned "
              << core::evaluate_warp(wa, 0).aligned << " of " << w * e
              << " elements\n\n";
    return 0;
  }
  const auto wa = core::worst_case_warp(w, e, core::WarpSide::L, strategy);
  const u32 s = core::alignment_window_start(w, e, strategy);
  const auto eval = core::evaluate_warp(wa, s);
  std::cout << "Worst-case construction, w=" << w << ", E=" << e << " ("
            << (regime == core::ERegime::small ? "small" : "large")
            << " E, window starts at bank " << s << "):\n"
            << core::render_warp(wa) << "aligned " << eval.aligned << " of "
            << w * e << " elements; per-step serialization:";
  for (const auto d : eval.step_degree) {
    std::cout << ' ' << d;
  }
  std::cout << "\n\nconflict heatmap (threads per bank per iteration):\n"
            << core::render_conflict_heatmap(wa) << "\n";
  return 0;
}

/// Shared by the SIGINT/SIGTERM handlers and the campaign: cancel() is a
/// lock-free atomic store, so it is async-signal-safe.
runtime::CancelSource g_campaign_cancel;

extern "C" void wcmgen_on_signal(int /*signum*/) {
  g_campaign_cancel.cancel();
}

int cmd_campaign(const cli::Args& a) {
  if (a.operands().size() > 1) {
    throw parse_error("unexpected argument '" + a.operands()[1] +
                      "' (campaign takes one spec file)");
  }
  const std::string path =
      a.operands().empty() ? a.get("spec", "") : a.operands()[0];
  if (path.empty()) {
    throw parse_error(
        "campaign requires a spec file: wcmgen campaign spec.json");
  }
  const auto spec = runtime::load_campaign_spec(path);

  runtime::CampaignOptions opts;
  opts.threads = a.get_u32("threads", 0);
  opts.use_cache = !a.has("no-cache");
  opts.cache_path = a.get("cache", "");
  opts.trace_dir = a.get("trace-dir", "");
  if (!a.has("quiet")) {
    opts.progress = &std::cerr;
  }
  // Journal next to the spec by default (like the cache), overridable.
  opts.journal_path = a.get("journal", path + ".wcmj");
  opts.resume = a.has("resume");
  opts.fail_fast = a.has("fail-fast");
  // --retries n = n re-runs after the first failure.
  opts.retry.max_attempts =
      static_cast<u32>(a.get_u64("retries", 2, 100)) + 1;

  // Graceful drain: a signal stops admission; in-flight cells finish and
  // are journaled; the process exits 7 with a --resume-able journal.
  opts.cancel = &g_campaign_cancel;
  std::signal(SIGINT, wcmgen_on_signal);
  std::signal(SIGTERM, wcmgen_on_signal);
  const auto outcome = runtime::run_campaign(spec, opts);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (outcome.interrupted()) {
    std::cerr << "campaign " << spec.name << ": interrupted — "
              << outcome.cancelled
              << " cells pending; rerun with --resume to continue\n";
    return 7;
  }

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      throw io_error("cannot open campaign output file", out);
    }
    os << outcome.json << "\n";
    if (!os) {
      throw io_error("campaign output write failed", out);
    }
  } else {
    std::cout << outcome.json << "\n";
  }
  // Fixed-format summary (campaign_ci greps these fields).
  std::cerr << "campaign " << spec.name << ": cells=" << outcome.cells
            << " computed=" << outcome.computed
            << " cached=" << outcome.cache_hits
            << " replayed=" << outcome.replayed
            << " quarantined=" << outcome.quarantined.size()
            << " threads=" << outcome.threads << " wall=" << outcome.wall_seconds
            << "s\n";
  for (const auto& q : outcome.quarantined) {
    std::cerr << "quarantined cell " << q.index << " (" << q.label
              << ") after " << q.attempts << " attempts: " << q.message
              << "\n";
  }
  return outcome.degraded() ? 6 : 0;
}

int cmd_metrics(const cli::Args& a) {
  serve::MetricsParams p;
  serve::read_flags(a, p);
  const std::string socket = a.get("socket", serve::ServerConfig().socket);
  const u64 timeout_ms = a.get_u64("timeout-ms", 2000, 600'000);
  serve::Client client = serve::connect_with_retry(socket, timeout_ms);
  json::Object params;
  params.emplace("format", json::Value(std::string(to_string(p.format))));
  json::Object req;
  req.emplace("id", json::Value(std::string("metrics")));
  req.emplace("op", json::Value(std::string("metrics")));
  req.emplace("params", json::Value(std::move(params)));
  const std::string reply =
      client.roundtrip(json::to_text(json::Value(std::move(req))));
  const json::Value doc = json::parse(reply);
  const json::Object& fields = doc.as_object();
  const auto ok = fields.find("ok");
  if (ok == fields.end() || !ok->second.as_bool()) {
    throw io_error("daemon refused the metrics request", reply);
  }
  const json::Value& result = fields.at("result");
  if (p.format == serve::MetricsFormat::json) {
    std::cout << json::to_text(result) << "\n";
  } else {
    // The daemon wraps line-oriented expositions in a {"body","format"}
    // envelope; unwrap so stdout is the raw scrape document.
    std::cout << result.as_object().at("body").as_string();
  }
  return 0;
}

int cmd_version() {
  // version = the release; describe = the exact commit the binary came
  // from; salt = what partitions WCMC/WCMS cache files across builds (a
  // mismatched salt is why a daemon starts cold after an upgrade).
  std::cout << "wcmgen " << version_string() << " (" << build_describe()
            << ")\n"
            << "cache salt: 0x" << std::hex << runtime::code_version_salt()
            << std::dec << "\n";
  return 0;
}

struct Command {
  std::string name;
  std::vector<cli::Flag> flags;
  int (*run)(const cli::Args&);
  bool operands = false;  ///< accepts positional operands
  const char* usage = kUsage;  ///< what --help prints
};

/// Every subcommand but profile, help and version (which take no flags of
/// their own).
const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"generate",
       merged(serve::flags_of<serve::GenerateParams>(),
              {{"rounds"}, {"out"}, {"csv", false}}),
       cmd_generate},
      {"evaluate", {{"E"}, {"w"}, {"side"}, {"strategy"}}, cmd_evaluate},
      {"sort",
       merged(serve::flags_of<sort::SortConfig>(),
              {{"k"}, {"seed"}, {"input"}, {"device"}, {"library"},
               {"algorithm"}, {"ways"}, {"digit-bits"}, {"json", false},
               {"trace-out"}}),
       cmd_sort},
      {"inspect", {{"in"}}, cmd_inspect},
      {"analyze",
       {{"in"}, {"json", false}, {"pad"}, {"layout"},
        {"no-cross-check", false}},
       cmd_analyze,
       true},
      {"prove",
       merged(merged(serve::flags_of<serve::ProveParams>(),
                     serve::flags_of<serve::CertifyParams>()),
              {{"json", false}, {"certify", false}, {"trace"}}),
       cmd_prove},
      {"verify",
       {{"engine"}, {"ws"}, {"b"}, {"pad"}, {"layout"}, {"E-min"},
        {"E-max"}, {"odd-E", false}, {"ways"}, {"digit-bits"},
        {"json", false}, {"no-differential", false}},
       cmd_verify},
      {"visualize", {{"E"}, {"w"}, {"strategy"}}, cmd_visualize},
      {"campaign",
       {{"spec"}, {"threads"}, {"no-cache", false}, {"cache"}, {"out"},
        {"trace-dir"}, {"quiet", false}, {"journal"}, {"resume", false},
        {"retries"}, {"fail-fast", false}},
       cmd_campaign,
       true},
      {"serve", serve::serve_flags(), serve::run_server, false,
       serve::daemon_usage()},
      {"metrics",
       merged(serve::flags_of<serve::MetricsParams>(),
              {{"socket"}, {"timeout-ms"}}),
       cmd_metrics},
  };
  return table;
}

const Command* find_command(const std::string& name) {
  for (const Command& c : commands()) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

/// Parse `tokens` against `cmd`'s flags and run it.
int run_command(const Command& cmd, const std::vector<std::string>& tokens) {
  const cli::Args args(tokens, cmd.flags, "subcommand '" + cmd.name + "'",
                       cmd.operands);
  if (args.has("help")) {
    std::cout << cmd.usage;
    return 0;
  }
  return cmd.run(args);
}

/// Canned profile: a worst-case sort in the requested E regime.
int cmd_profile_canned(const cli::Args& a) {
  const std::string engine = a.get("engine", "");
  if (engine.empty()) {
    throw parse_error(
        "profile needs a subcommand to wrap, or --engine with "
        "--adversarial small-E|large-E (see wcmgen --help)");
  }
  const bool small_e = cli::parse_choice<bool>(
      "--adversarial", a.get("adversarial", "large-E"),
      {{"small-E", true}, {"large-E", false}});
  // small-E (E < w/2, Theorem 3) vs large-E (w/2 < E < w, Theorem 9 —
  // the regime the paper's headline slowdown comes from).
  std::vector<std::string> sort_tokens = {
      "--E",     small_e ? "5" : "31",
      "--b",     "64",
      "--w",     "32",
      "--k",     std::to_string(a.get_u64("k", 4, 40)),
      "--input", "worst-case",
      "--algorithm", engine};
  for (const char* passed : {"seed", "device"}) {
    if (a.has(passed)) {
      sort_tokens.insert(sort_tokens.end(),
                         {std::string("--") + passed, a.get(passed, "")});
    }
  }
  if (a.has("json")) {
    sort_tokens.emplace_back("--json");
  }
  return run_command(*find_command("sort"), sort_tokens);
}

int cmd_profile(std::vector<std::string> tokens) {
  const std::vector<cli::Flag> profile_flags = {{"telemetry"}, {"metrics"}};
  const Command canned = {"profile",
                          {{"engine"}, {"adversarial"}, {"k"}, {"seed"},
                           {"device"}, {"json", false}},
                          cmd_profile_canned};
  // The wrapped subcommand is the first token that is neither a profile
  // flag nor its value; without one, profile runs the canned sort.
  const Command* target = &canned;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] == "--telemetry" || tokens[i] == "--metrics") {
      ++i;
      continue;
    }
    if (const Command* inner = find_command(tokens[i])) {
      target = inner;
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
    }
    break;
  }
  const cli::Args args(tokens, merged(target->flags, profile_flags),
                       "profile", target->operands);
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string trace_out = args.get("telemetry", "");
  const std::string metrics_out = args.get("metrics", "");

  telemetry::set_enabled(true);
  telemetry::set_tracing(true);
  if (!trace_out.empty()) {
    telemetry::set_trace_path(trace_out);
  }
  const int code = target->run(args);

  // Observability must never change the observed run's outcome: metric
  // and trace export failures warn and leave `code` alone.
  try {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    std::cout << "--- telemetry metrics ---\n";
    snap.write_text(std::cout);
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (!os) {
        throw io_error("cannot open metrics output file", metrics_out);
      }
      snap.write_json(os);
      if (!os) {
        throw io_error("metrics write failed", metrics_out);
      }
      std::cerr << "wrote metrics to " << metrics_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "warning: telemetry: metrics export failed: " << e.what()
              << " (run continues)\n";
  }
  telemetry::flush_trace(&std::cerr);
  return code;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> rest = cli::tokens(argc, argv, 2);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (cmd == "version" || cmd == "--version" || cmd == "-V") {
    return cmd_version();
  }
  if (cmd == "profile") {
    return cmd_profile(std::move(rest));
  }
  const Command* command = find_command(cmd);
  if (command == nullptr) {
    std::vector<std::string> names;
    for (const Command& c : commands()) {
      names.push_back(c.name);
    }
    names.insert(names.end(), {"profile", "version", "help"});
    throw parse_error("unknown subcommand '" + cmd +
                      "' (valid: " + cli::join(names) + ")");
  }
  return run_command(*command, rest);
}

}  // namespace

int main(int argc, char** argv) {
  return serve::guarded_main("wcmgen", [&] { return run(argc, argv); });
}
