// Fault-injection coverage: every registered failpoint fires at least once
// and surfaces its *typed* error — never std::logic_error or a raw
// std::runtime_error — so each error path is proven reachable and
// correctly classified.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "analyze/passes/verify.hpp"
#include "gpusim/device.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/trace.hpp"
#include "runtime/cache.hpp"
#include "runtime/journal.hpp"
#include "runtime/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sort/multiway.hpp"
#include "sort/pairwise_sort.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "workload/inputs.hpp"
#include "workload/io.hpp"

namespace wcm {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("wcm_failpoint_" + std::to_string(::getpid()) + ".wcmi");

  std::vector<dmm::word> valid_keys_ = workload::random_permutation(64, 3);

  void write_valid_file() { workload::write_binary(path_, valid_keys_); }

  /// Run a tiny pairwise sort (one global merge round).
  void run_pairwise() {
    const sort::SortConfig cfg{5, 64, 32};
    const auto input = workload::make_input(workload::InputKind::random,
                                            cfg.tile() * 2, cfg, 1);
    (void)sort::pairwise_merge_sort(input, cfg, gpusim::quadro_m4000());
  }

  void run_multiway() {
    const sort::SortConfig cfg{5, 64, 32};
    const auto input = workload::make_input(workload::InputKind::random,
                                            cfg.tile() * 2, cfg, 1);
    (void)sort::multiway_merge_sort(input, cfg, gpusim::quadro_m4000(), 2);
  }
};

TEST_F(FaultInjectionTest, IoReadOpen) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.open");
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, IoReadAlloc) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.alloc");
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, IoReadTruncated) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.truncated");
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, IoReadChecksum) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.checksum");
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, IoWriteFail) {
  failpoint::scoped_arm fp("io.write.fail");
  EXPECT_THROW(workload::write_binary(path_, valid_keys_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, TraceReadMalformed) {
  failpoint::scoped_arm fp("trace.read.malformed");
  std::istringstream is("WCMT 32 1\nR 0:1\n");
  EXPECT_THROW((void)gpusim::read_trace(is), parse_error);
}

TEST_F(FaultInjectionTest, SimSmemAlloc) {
  failpoint::scoped_arm fp("sim.smem.alloc");
  EXPECT_THROW(gpusim::SharedMemory(32, 64), simulation_error);
}

TEST_F(FaultInjectionTest, SimSmemInvariant) {
  gpusim::SharedMemory shm(32, 64);
  failpoint::scoped_arm fp("sim.smem.invariant");
  const std::vector<gpusim::LaneRead> reads{{0, 0}};
  EXPECT_THROW((void)shm.warp_read(reads), simulation_error);
}

// Shared-memory reads keep their fault schedule: an armed failpoint sends
// every block of a launch down the full path, so a pairwise sort reaches
// `sim.smem.invariant` as many times as with a recorder attached, and the
// last of those reads can still be made to fail.
TEST_F(FaultInjectionTest, SimSmemInvariantScheduleMatchesTheTracedRun) {
  const sort::SortConfig cfg{5, 64, 32};
  const auto input = workload::make_input(workload::InputKind::random,
                                          cfg.tile() * 4, cfg, 1);
  const auto dev = gpusim::quadro_m4000();
  gpusim::TraceRecorder recorder;
  sort::SortConfig traced = cfg;
  traced.trace_sink = &recorder;
  const std::uint64_t before = failpoint::evaluations("sim.smem.invariant");
  (void)sort::pairwise_merge_sort(input, traced, dev);
  const std::uint64_t n =
      failpoint::evaluations("sim.smem.invariant") - before;
  ASSERT_GT(n, 0u);
  {
    const failpoint::scoped_arm fp("sim.smem.invariant", n - 1, 1);
    EXPECT_THROW((void)sort::pairwise_merge_sort(input, cfg, dev),
                 simulation_error);
  }
  {
    const failpoint::scoped_arm fp("sim.smem.invariant", n, 1);
    EXPECT_NO_THROW((void)sort::pairwise_merge_sort(input, cfg, dev));
  }
}

TEST_F(FaultInjectionTest, SortPairwiseRound) {
  failpoint::scoped_arm fp("sort.pairwise.round");
  EXPECT_THROW(run_pairwise(), simulation_error);
}

TEST_F(FaultInjectionTest, SortMultiwayRound) {
  failpoint::scoped_arm fp("sort.multiway.round");
  EXPECT_THROW(run_multiway(), simulation_error);
}

// Satellite contract: a fault injected between verification passes must
// surface as a typed wcm::error (nonzero CLI exit via the main() map) and
// must abort before any report is assembled — never a partially verified
// certificate.
TEST_F(FaultInjectionTest, AnalyzeVerifyPass) {
  failpoint::scoped_arm fp("analyze.verify.pass");
  analyze::passes::VerifyOptions vopts;
  vopts.ws = {2};
  vopts.e_max = 4;
  vopts.differential = false;
  EXPECT_THROW((void)analyze::passes::run_verify({"pairwise"}, vopts),
               simulation_error);
}

TEST_F(FaultInjectionTest, AnalyzeVerifyPassCarriesContext) {
  failpoint::scoped_arm fp("analyze.verify.pass");
  analyze::passes::VerifyOptions vopts;
  vopts.ws = {2};
  vopts.e_max = 4;
  vopts.differential = false;
  try {
    (void)analyze::passes::run_verify({"pairwise"}, vopts);
    FAIL() << "failpoint did not fire";
  } catch (const simulation_error& e) {
    EXPECT_EQ(e.code(), errc::simulation_invariant);
    EXPECT_NE(e.context().find("analyze.verify.pass"), std::string::npos);
  }
}

TEST_F(FaultInjectionTest, TelemetryExportWrite) {
  failpoint::scoped_arm fp("telemetry.export.write");
  std::ostringstream os;
  EXPECT_THROW(telemetry::write_chrome_trace(os), io_error);
}

TEST_F(FaultInjectionTest, TelemetryRegistrySnapshot) {
  failpoint::scoped_arm fp("telemetry.registry.snapshot");
  EXPECT_THROW((void)telemetry::registry().snapshot(), simulation_error);
}

// Satellite contract: a failing trace export must degrade gracefully —
// flush_trace() swallows the injected io_error, warns, and reports false
// so CLI callers can keep their exit code.
TEST_F(FaultInjectionTest, TraceExportFailureDegradesGracefully) {
  telemetry::set_tracing(true);
  { WCM_SPAN("doomed"); }
  telemetry::set_tracing(false);
  telemetry::set_trace_path(
      (std::filesystem::temp_directory_path() /
       ("wcm_flush_fail_" + std::to_string(::getpid()) + ".json"))
          .string());
  failpoint::scoped_arm fp("telemetry.export.write");
  std::ostringstream warn;
  EXPECT_FALSE(telemetry::flush_trace(&warn));
  EXPECT_NE(warn.str().find("trace export failed"), std::string::npos)
      << warn.str();
  EXPECT_NE(warn.str().find("run continues"), std::string::npos);
  EXPECT_TRUE(telemetry::trace_path().empty());
  telemetry::reset_trace();
}

// Satellite contract: a failed event-log write becomes a counter bump —
// the line vanishes, emit() never throws, and the log keeps working once
// the fault clears.
TEST_F(FaultInjectionTest, EventlogWriteFailureDegradesToTheDropCounter) {
  const std::string log = path_.string() + ".jsonl";
  telemetry::eventlog::reset_for_tests();
  telemetry::eventlog::set_path(log);
  {
    const failpoint::scoped_arm fp("telemetry.eventlog.write");
    telemetry::eventlog::emit("doomed", {});  // must not throw
  }
  EXPECT_EQ(telemetry::eventlog::dropped(), 1u);
  telemetry::eventlog::emit("survivor", {});
  EXPECT_EQ(telemetry::eventlog::dropped(), 1u);
  std::ifstream is(log);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_NE(line.find("\"event\":\"survivor\""), std::string::npos) << line;
  EXPECT_FALSE(std::getline(is, line)) << "dropped line was written: " << line;
  telemetry::eventlog::reset_for_tests();
  std::filesystem::remove(log);
}

// Satellite contract: an injected trace-context failure degrades the
// request to untraced — counted on serve.trace.drop — and never costs the
// client its response.
TEST_F(FaultInjectionTest, TraceInjectionFailureNeverCostsAResponse) {
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  telemetry::set_tracing(true);  // trace minting is active, and fails
  const failpoint::scoped_arm fp("serve.trace.inject");
  serve::ServerConfig cfg;
  cfg.socket = "@wcm-fault-trace-" + std::to_string(::getpid());
  serve::Server server(cfg);
  server.set_log(nullptr);
  std::exception_ptr failure;
  std::thread thread([&] {
    try {
      (void)server.serve();
    } catch (...) {
      failure = std::current_exception();
    }
  });
  {
    serve::Client client = serve::connect_with_retry(cfg.socket, 5000);
    const auto reply =
        json::parse(client.roundtrip(
                        R"({"op":"generate","id":"g","params":)"
                        R"({"E":5,"b":64,"k":1},"trace":{"trace_id":"a1"}})"))
            .as_object();
    EXPECT_TRUE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("id").as_string(), "g");
  }
  server.request_drain();
  thread.join();
  telemetry::set_tracing(false);
  if (failure) {
    std::rethrow_exception(failure);
  }
  EXPECT_GE(telemetry::registry().snapshot().counter_total(
                "serve.trace.drop"),
            1u);
  telemetry::set_enabled(false);
  telemetry::registry().reset();
  telemetry::reset_trace();
}

TEST_F(FaultInjectionTest, ErrorsCarryFailpointContext) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.checksum");
  try {
    (void)workload::read_binary(path_);
    FAIL() << "failpoint did not fire";
  } catch (const io_error& e) {
    EXPECT_EQ(e.code(), errc::io_failure);
    EXPECT_NE(e.context().find("io.read.checksum"), std::string::npos);
  }
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, DisarmedFailpointsCountEvaluations) {
  const auto before = failpoint::evaluations("io.read.open");
  write_valid_file();
  EXPECT_EQ(workload::read_binary(path_), valid_keys_);  // nothing armed
  EXPECT_EQ(failpoint::evaluations("io.read.open"), before + 1);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, SkipCountDelaysFiring) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.open", /*skip=*/2);
  EXPECT_EQ(workload::read_binary(path_), valid_keys_);
  EXPECT_EQ(workload::read_binary(path_), valid_keys_);
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, TimesLimitStopsFiring) {
  write_valid_file();
  failpoint::scoped_arm fp("io.read.open", /*skip=*/0, /*times=*/1);
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  EXPECT_EQ(workload::read_binary(path_), valid_keys_);  // budget spent
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, ScopedDisarmSuppressesAndRestores) {
  write_valid_file();
  failpoint::arm("io.read.open");
  {
    failpoint::scoped_disarm off("io.read.open");
    EXPECT_EQ(workload::read_binary(path_), valid_keys_);
  }
  EXPECT_TRUE(failpoint::armed("io.read.open"));
  EXPECT_THROW((void)workload::read_binary(path_), io_error);
  failpoint::disarm("io.read.open");
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, ScopedDisarmAllSuppressesEverything) {
  write_valid_file();
  failpoint::arm("io.read.open");
  failpoint::arm("io.read.checksum");
  {
    failpoint::scoped_disarm off;
    EXPECT_EQ(workload::read_binary(path_), valid_keys_);
  }
  EXPECT_TRUE(failpoint::armed("io.read.open"));
  EXPECT_TRUE(failpoint::armed("io.read.checksum"));
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, EnvVarArmsFailpoints) {
  ASSERT_EQ(::setenv("WCM_FAILPOINTS", "io.read.open;io.read.checksum=1",
                     /*overwrite=*/1),
            0);
  EXPECT_EQ(failpoint::configure_from_env(), 2u);
  EXPECT_TRUE(failpoint::armed("io.read.open"));
  EXPECT_TRUE(failpoint::armed("io.read.checksum"));

  write_valid_file();
  failpoint::disarm("io.read.open");
  // skip=1: first read survives, second hits the checksum failpoint.
  EXPECT_EQ(workload::read_binary(path_), valid_keys_);
  EXPECT_THROW((void)workload::read_binary(path_), io_error);

  ASSERT_EQ(::unsetenv("WCM_FAILPOINTS"), 0);
  (void)failpoint::configure_from_env();  // re-sync cached env value
  failpoint::disarm_all();
  std::filesystem::remove(path_);
}

TEST_F(FaultInjectionTest, EnvVarRejectsGarbageSpec) {
  // Every malformed shape is a parse_error, never a silent no-op: an empty
  // site name, non-numeric counts, trailing garbage after a count, and a
  // missing times value all reject the whole variable.
  for (const char* bad :
       {"io.read.open=abc", "=1", "io.read.open=", "io.read.open=1x",
        "io.read.open=1:", "io.read.open=1:2y", "io.read.open=1:2:3",
        "io.read.open=-1"}) {
    ASSERT_EQ(::setenv("WCM_FAILPOINTS", bad, 1), 0);
    EXPECT_THROW((void)failpoint::configure_from_env(), parse_error) << bad;
  }
  ASSERT_EQ(::unsetenv("WCM_FAILPOINTS"), 0);
  (void)failpoint::configure_from_env();
  failpoint::disarm_all();
}

TEST_F(FaultInjectionTest, EnvVarMalformedSpecArmsNothing) {
  // Validate-then-apply: a parse failure anywhere in the list must not arm
  // the well-formed entries that preceded it.
  ASSERT_EQ(::setenv("WCM_FAILPOINTS", "io.read.open;io.read.checksum=zz", 1),
            0);
  EXPECT_THROW((void)failpoint::configure_from_env(), parse_error);
  EXPECT_FALSE(failpoint::armed("io.read.open"));
  EXPECT_FALSE(failpoint::armed("io.read.checksum"));
  ASSERT_EQ(::unsetenv("WCM_FAILPOINTS"), 0);
  (void)failpoint::configure_from_env();
  failpoint::disarm_all();
}

TEST_F(FaultInjectionTest, EnvVarIgnoresEmptySegments) {
  // Stray separators are harmless; only named entries count.
  ASSERT_EQ(::setenv("WCM_FAILPOINTS", ";io.read.open;;io.read.checksum,", 1),
            0);
  EXPECT_EQ(failpoint::configure_from_env(), 2u);
  EXPECT_TRUE(failpoint::armed("io.read.open"));
  EXPECT_TRUE(failpoint::armed("io.read.checksum"));
  ASSERT_EQ(::unsetenv("WCM_FAILPOINTS"), 0);
  (void)failpoint::configure_from_env();
  failpoint::disarm_all();
}

TEST_F(FaultInjectionTest, KnownListsAllBuiltins) {
  const auto names = failpoint::known();
  for (const char* expected :
       {"io.read.open", "io.read.alloc", "io.read.truncated",
        "io.read.checksum", "io.write.fail", "trace.read.malformed",
        "sim.smem.alloc", "sim.smem.invariant", "sort.pairwise.round",
        "sort.multiway.round", "analyze.verify.pass", "runtime.worker.job",
        "runtime.cache.load",
        "runtime.cache.store", "runtime.journal.append",
        "runtime.journal.replay", "telemetry.export.write",
        "telemetry.registry.snapshot", "telemetry.eventlog.write",
        "serve.accept", "serve.read", "serve.write", "serve.dispatch",
        "serve.trace.inject"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// Exhaustive coverage: arm every registered failpoint in turn, drive the
// code path it instruments, and assert the matching typed error surfaces.
// Self-contained (ctest runs each TEST in its own process), and fails if a
// new failpoint is registered without a driver here.
TEST_F(FaultInjectionTest, EveryRegisteredFailpointFired) {
  struct Driver {
    errc expected;
    std::function<void()> run;
    /// False for sites that swallow the injected error by design (the
    /// event log's degrade contract); the loop then only checks that the
    /// failpoint actually fired.
    bool throws = true;
  };
  const std::map<std::string, Driver> drivers{
      {"io.read.open",
       {errc::io_failure, [&] { (void)workload::read_binary(path_); }}},
      {"io.read.alloc",
       {errc::io_failure, [&] { (void)workload::read_binary(path_); }}},
      {"io.read.truncated",
       {errc::io_failure, [&] { (void)workload::read_binary(path_); }}},
      {"io.read.checksum",
       {errc::io_failure, [&] { (void)workload::read_binary(path_); }}},
      {"io.write.fail",
       {errc::io_failure,
        [&] { workload::write_binary(path_, valid_keys_); }}},
      {"trace.read.malformed",
       {errc::parse_failure,
        [] {
          std::istringstream is("WCMT 32 1\nR 0:1\n");
          (void)gpusim::read_trace(is);
        }}},
      {"sim.smem.alloc",
       {errc::simulation_invariant,
        [] { gpusim::SharedMemory shm(32, 64); }}},
      {"sim.smem.invariant",
       {errc::simulation_invariant,
        [] {
          gpusim::SharedMemory shm(32, 64);
          const std::vector<gpusim::LaneRead> reads{{0, 0}};
          (void)shm.warp_read(reads);
        }}},
      {"sort.pairwise.round",
       {errc::simulation_invariant, [&] { run_pairwise(); }}},
      {"sort.multiway.round",
       {errc::simulation_invariant, [&] { run_multiway(); }}},
      {"analyze.verify.pass",
       {errc::simulation_invariant,
        [] {
          analyze::passes::VerifyOptions vopts;
          vopts.ws = {2};
          vopts.e_max = 4;
          vopts.differential = false;
          (void)analyze::passes::run_verify({"pairwise"}, vopts);
        }}},
      {"runtime.worker.job",
       {errc::simulation_invariant,
        [] {
          const std::vector<runtime::Job> jobs{runtime::Job{[] {}, {}, {}}};
          runtime::RunOptions opts;
          opts.threads = 1;
          runtime::run(jobs, opts).rethrow_first_error();
        }}},
      {"runtime.cache.load",
       {errc::io_failure,
        [&] {
          const auto cache_path = path_.string() + ".wcmc";
          {
            failpoint::scoped_disarm off("runtime.cache.store");
            runtime::ResultCache(u64{1}).store(cache_path);
          }
          const auto guard = std::filesystem::path(cache_path);
          try {
            (void)runtime::ResultCache::load(guard, 1);
          } catch (...) {
            std::filesystem::remove(guard);
            throw;
          }
          std::filesystem::remove(guard);
        }}},
      {"runtime.cache.store",
       {errc::io_failure,
        [&] {
          runtime::ResultCache(u64{1}).store(path_.string() + ".wcmc");
        }}},
      {"runtime.journal.append",
       {errc::io_failure,
        [&] {
          const auto jpath = std::filesystem::path(path_.string() + ".wcmj");
          try {
            runtime::JournalWriter writer(jpath, 1, 1,
                                          runtime::JournalReplay{});
            writer.append(1, analysis::SeriesPoint{});
          } catch (...) {
            std::filesystem::remove(jpath);
            throw;
          }
          std::filesystem::remove(jpath);
        }}},
      {"runtime.journal.replay",
       {errc::io_failure,
        [&] {
          // The failpoint fires before the file is touched; no file needed.
          (void)runtime::replay_journal(path_.string() + ".wcmj", 1, 1);
        }}},
      {"telemetry.export.write",
       {errc::io_failure,
        [] {
          std::ostringstream os;
          telemetry::write_chrome_trace(os);
        }}},
      {"telemetry.registry.snapshot",
       {errc::simulation_invariant,
        [] { (void)telemetry::registry().snapshot(); }}},
      // The wcmd daemon catches these at its I/O sites (dropping the
      // connection or logging a failed write); the hooks in
      // serve::detail expose the sites for direct coverage here, and
      // tests/test_serve_daemon.cpp proves the daemon-level handling.
      {"serve.accept", {errc::io_failure, [] { serve::detail::accept_failpoint(); }}},
      {"serve.read", {errc::io_failure, [] { serve::detail::read_failpoint(); }}},
      {"serve.write", {errc::io_failure, [] { serve::detail::write_failpoint(); }}},
      {"serve.dispatch",
       {errc::simulation_invariant,
        [] { serve::detail::dispatch_failpoint(); }}},
      {"serve.trace.inject",
       {errc::simulation_invariant,
        [] { serve::detail::trace_inject_failpoint(); }}},
      // emit() swallows the injected io_error by contract — a dying
      // event log may never cost a response — so this driver checks the
      // degrade path (dropped tally) instead of a surfaced error.
      {"telemetry.eventlog.write",
       {errc::io_failure,
        [&] {
          telemetry::eventlog::reset_for_tests();
          telemetry::eventlog::set_path(path_.string() + ".jsonl");
          const u64 before = telemetry::eventlog::dropped();
          telemetry::eventlog::emit("doomed", {});
          EXPECT_EQ(telemetry::eventlog::dropped(), before + 1);
          telemetry::eventlog::reset_for_tests();
          std::filesystem::remove(path_.string() + ".jsonl");
        },
        /*throws=*/false}},
  };

  for (const auto& name : failpoint::known()) {
    const auto it = drivers.find(name);
    ASSERT_NE(it, drivers.end())
        << "failpoint '" << name << "' has no coverage driver";
    write_valid_file();
    const auto fired_before = failpoint::triggers(name);
    {
      failpoint::scoped_arm fp(name);
      if (!it->second.throws) {
        it->second.run();  // the driver asserts its own degrade path
      } else {
        try {
          it->second.run();
          FAIL() << "failpoint '" << name << "' did not fire";
        } catch (const wcm::error& e) {
          EXPECT_EQ(e.code(), it->second.expected)
              << name << " surfaced the wrong error class: " << e.what();
          EXPECT_NE(e.context().find(name), std::string::npos)
              << name << " error lacks failpoint context: " << e.what();
        }
      }
    }
    EXPECT_GE(failpoint::triggers(name), fired_before + 1) << name;
    EXPECT_GE(failpoint::evaluations(name), failpoint::triggers(name));
    std::filesystem::remove(path_);
  }
}

}  // namespace
}  // namespace wcm
