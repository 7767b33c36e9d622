// End-to-end tests of the wcmd daemon (serve::Server) over real
// Unix-domain sockets: health and admin ops, cold/warm byte-identity,
// the malformed-request corpus (the daemon answers typed errors and keeps
// serving), the in-flight dedup invariant (N concurrent identical
// requests -> exactly one scheduler job and one cache store), connection
// shedding, dispatch-fault recovery (errors are never cached), WCMS
// persistence across a restart, campaigns that keep only a journal, and
// the drain zero-drop invariant.
//
// Every test runs its server on a process-unique abstract-namespace
// socket, so parallel ctest invocations never collide and nothing
// touches the filesystem unless the test needs a data dir.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/registry.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace wcm::serve {
namespace {

/// Process-unique abstract socket name; `suffix` keeps the tests in one
/// binary apart when ctest runs them in the same process.
std::string test_socket(const std::string& suffix) {
  return "@wcm-test-" + std::to_string(::getpid()) + "-" + suffix;
}

/// A Server running on its own thread.  drain() requests a graceful
/// drain, joins, and rethrows any serve()-side failure.
struct RunningServer {
  explicit RunningServer(ServerConfig cfg) : server(std::move(cfg)) {
    server.set_log(nullptr);
    thread = std::thread([this] {
      try {
        (void)server.serve();
      } catch (...) {
        failure = std::current_exception();
      }
    });
  }

  ~RunningServer() {
    if (thread.joinable()) {
      server.request_drain();
      thread.join();
    }
  }

  ServerStats drain() {
    server.request_drain();
    return join();
  }

  ServerStats join() {
    thread.join();
    if (failure) {
      std::rethrow_exception(failure);
    }
    return server.stats();
  }

  Server server;
  std::thread thread;
  std::exception_ptr failure;
};

constexpr u64 kConnectTimeoutMs = 5000;

const char* kGenerate =
    R"({"op":"generate","id":"g","params":{"E":5,"b":64,"k":1}})";

json::Object response_of(const std::string& line) {
  return json::parse(line).as_object();
}

bool ok_of(const std::string& line) {
  return response_of(line).at("ok").as_bool();
}

std::string error_type_in(const std::string& line) {
  return response_of(line)
      .at("error")
      .as_object()
      .at("type")
      .as_string();
}

u64 counter(const std::string& name) {
  return telemetry::registry().snapshot().counter_total(name);
}

TEST(ServeDaemon, HealthAnswersAndEchoesTheId) {
  ServerConfig cfg;
  cfg.socket = test_socket("health");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const auto resp = response_of(client.roundtrip(R"({"op":"health","id":"h"})"));
  EXPECT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("id").as_string(), "h");
  EXPECT_TRUE(resp.at("result").as_object().at("ok").as_bool());
}

TEST(ServeDaemon, GenerateIsByteIdenticalColdAndWarm) {
  ServerConfig cfg;
  cfg.socket = test_socket("warm");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const std::string cold = client.roundtrip(kGenerate);
  const std::string warm = client.roundtrip(kGenerate);
  EXPECT_TRUE(ok_of(cold));
  EXPECT_EQ(cold, warm);  // the serve determinism contract, byte for byte
}

TEST(ServeDaemon, CampaignNamedWithATabAnswersOk) {
  ServerConfig cfg;
  cfg.socket = test_socket("tabname");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const auto resp = response_of(client.roundtrip(
      R"({"op":"campaign","id":"c","params":{"spec":{"name":"a\tb",)"
      R"("grid":[{"engine":"pairwise","E":5,"b":64,"k":[1]}]}}})"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  const json::Object& result = resp.at("result").as_object();
  EXPECT_EQ(result.at("name").as_string(), "a\tb");
  EXPECT_EQ(
      result.at("aggregate").as_object().at("campaign").as_string(),
      "a\tb");
}

TEST(ServeDaemon, MalformedRequestsGetTypedErrorsAndServiceContinues) {
  ServerConfig cfg;
  cfg.socket = test_socket("corpus");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);

  EXPECT_EQ(error_type_in(client.roundtrip("this is not json")), "parse");
  EXPECT_EQ(error_type_in(client.roundtrip(R"({"id":"x"})")), "parse");
  EXPECT_EQ(error_type_in(
                client.roundtrip(R"({"op":"health","op":"metrics"})")),
            "parse");  // strict JSON rejects duplicate keys
  EXPECT_EQ(error_type_in(client.roundtrip(R"({"op":"frobnicate","id":"u"})")),
            "unknown_op");
  EXPECT_EQ(error_type_in(client.roundtrip(
                R"({"op":"generate","params":{"bogus":1}})")),
            "parse");
  // Oversized payload: the daemon answers too_large and discards the
  // rest of the line instead of buffering unboundedly.
  const std::string oversized =
      R"({"op":"health","id":")" + std::string(70'000, 'x') + R"("})";
  EXPECT_EQ(error_type_in(client.roundtrip(oversized)), "too_large");

  // The same connection still serves real requests after every insult.
  EXPECT_TRUE(ok_of(client.roundtrip(R"({"op":"health"})")));
}

TEST(ServeDaemon, TruncatedRequestAndSilentDisconnectKeepServing) {
  ServerConfig cfg;
  cfg.socket = test_socket("truncated");
  RunningServer rs(cfg);
  {
    // A raw connection that dies mid-request: no newline ever arrives, so
    // no response is owed, and the daemon must just reap the connection.
    Client probe = connect_with_retry(cfg.socket, kConnectTimeoutMs);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string name = cfg.socket.substr(1);  // abstract namespace
    addr.sun_path[0] = '\0';
    std::memcpy(addr.sun_path + 1, name.data(), name.size());
    const auto len = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + 1 + name.size());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len), 0);
    const char truncated[] = R"({"op":"health")";
    ASSERT_GT(::send(fd, truncated, sizeof(truncated) - 1, 0), 0);
    ::close(fd);
  }
  {
    // A connection that closes without sending anything at all.
    Client silent = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  }
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  EXPECT_TRUE(ok_of(client.roundtrip(R"({"op":"health"})")));
  const ServerStats stats = rs.drain();
  EXPECT_EQ(stats.requests, stats.responses);  // the truncated line is not
                                               // a request -- nothing owed
}

TEST(ServeDaemon, ConcurrentIdenticalRequestsShareOneJobAndOneCacheStore) {
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  ServerConfig cfg;
  cfg.socket = test_socket("dedup");
  cfg.threads = 2;  // the invariant must hold under real parallelism
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  {
    RunningServer rs(cfg);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
        responses[static_cast<std::size_t>(i)] = client.roundtrip(kGenerate);
      });
    }
    for (auto& t : clients) {
      t.join();
    }
    const ServerStats stats = rs.drain();
    EXPECT_EQ(stats.requests, static_cast<u64>(kClients));
    EXPECT_EQ(stats.responses, static_cast<u64>(kClients));
  }
  // However the 8 interleaved (join the in-flight computation or hit the
  // cache behind it), exactly one scheduler job ran and exactly one cache
  // admission happened.
  EXPECT_EQ(counter("serve.jobs"), 1u);
  EXPECT_EQ(counter("serve.cache.admit"), 1u);
  // Each request was the leader (1) or was coalesced: joins + cache hits
  // account for the other seven.
  EXPECT_EQ(counter("serve.dedup.hits") + counter("serve.cache.hit"),
            static_cast<u64>(kClients - 1));
  EXPECT_TRUE(ok_of(responses[0]));
  for (const auto& r : responses) {
    EXPECT_EQ(r, responses[0]);  // byte-identical fan-out
  }
  telemetry::set_enabled(false);
  telemetry::registry().reset();
}

TEST(ServeDaemon, ShedsConnectionsOverTheLimit) {
  ServerConfig cfg;
  cfg.socket = test_socket("shed");
  cfg.max_connections = 1;
  RunningServer rs(cfg);
  Client first = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  // Roundtrip so the first connection is registered before the second
  // arrives (accept order alone is not enough under TSan-level delays).
  EXPECT_TRUE(ok_of(first.roundtrip(R"({"op":"health"})")));
  Client second = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const auto line = second.recv_line();  // courtesy line, then EOF
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(error_type_in(*line), "overloaded");
  EXPECT_FALSE(second.recv_line().has_value());
  // The surviving connection is unaffected.
  EXPECT_TRUE(ok_of(first.roundtrip(R"({"op":"health"})")));
  EXPECT_GE(rs.drain().shed, 1u);
}

TEST(ServeDaemon, DispatchFaultYieldsInternalErrorAndIsNotCached) {
  ServerConfig cfg;
  cfg.socket = test_socket("fault");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const failpoint::scoped_arm arm("serve.dispatch", /*skip=*/0, /*times=*/1);
  const std::string failed = client.roundtrip(kGenerate);
  EXPECT_FALSE(ok_of(failed));
  EXPECT_EQ(error_type_in(failed), "internal");
  // Errors are never admitted to the cache: the identical resend computes
  // fresh and succeeds.
  EXPECT_TRUE(ok_of(client.roundtrip(kGenerate)));
}

TEST(ServeDaemon, WcmsCacheSurvivesARestart) {
  const std::filesystem::path data_dir =
      std::filesystem::temp_directory_path() /
      ("wcmd_test_data_" + std::to_string(::getpid()));
  std::filesystem::remove_all(data_dir);
  ServerConfig cfg;
  cfg.socket = test_socket("persist");
  cfg.data_dir = data_dir.string();
  std::string cold;
  {
    RunningServer rs(cfg);
    Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
    cold = client.roundtrip(kGenerate);
    EXPECT_TRUE(ok_of(cold));
  }  // drain stores the WCMS cache under data_dir
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  {
    RunningServer rs(cfg);
    Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
    EXPECT_EQ(client.roundtrip(kGenerate), cold);  // warmed from disk
  }
  EXPECT_GE(counter("serve.cache.hit"), 1u);
  EXPECT_EQ(counter("serve.jobs"), 0u);  // nothing was recomputed
  telemetry::set_enabled(false);
  telemetry::registry().reset();
  std::filesystem::remove_all(data_dir);
}

TEST(ServeDaemon, CampaignsJournalOnlyAndReplayAfterTheResponseCacheIsLost) {
  const std::filesystem::path data_dir =
      std::filesystem::temp_directory_path() /
      ("wcmd_test_journal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(data_dir);
  ServerConfig cfg;
  cfg.socket = test_socket("journal");
  cfg.data_dir = data_dir.string();
  const char* campaign =
      R"({"op":"campaign","id":"c","params":{"spec":{"name":"j","seed":5,)"
      R"("grid":[{"engine":"pairwise","E":5,"b":64,)"
      R"("input":["random","worst-case"],"k":[1,2]}]}}})";
  constexpr u64 kCells = 4;
  std::string cold;
  {
    RunningServer rs(cfg);
    Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
    cold = client.roundtrip(campaign);
    ASSERT_TRUE(ok_of(cold));
  }
  std::size_t journals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    EXPECT_NE(entry.path().extension(), ".wcmc") << entry.path();
    journals += entry.path().extension() == ".wcmj" ? 1u : 0u;
  }
  EXPECT_EQ(journals, 1u);

  // Without responses.wcms the restarted daemon recomputes the request,
  // and the journal alone supplies every cell.
  ASSERT_TRUE(std::filesystem::remove(data_dir / "responses.wcms"));
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  {
    RunningServer rs(cfg);
    Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
    EXPECT_EQ(client.roundtrip(campaign), cold);
  }
  EXPECT_EQ(counter("serve.campaign.replayed"), kCells);
  EXPECT_EQ(counter("serve.campaign.computed"), 0u);
  telemetry::set_enabled(false);
  telemetry::registry().reset();
  std::filesystem::remove_all(data_dir);
}

TEST(ServeDaemon, DrainOpAcksThenDrainsTheServer) {
  ServerConfig cfg;
  cfg.socket = test_socket("drainop");
  RunningServer rs(cfg);
  Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
  const auto resp = response_of(client.roundtrip(R"({"op":"drain","id":"d"})"));
  EXPECT_TRUE(resp.at("ok").as_bool());
  EXPECT_TRUE(resp.at("result").as_object().at("draining").as_bool());
  // The ack is the last thing this connection sees; serve() then returns
  // on its own -- no request_drain() from the test side.
  EXPECT_FALSE(client.recv_line().has_value());
  const ServerStats stats = rs.join();
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST(ServeDaemon, DrainBalancesRequestsAndResponsesUnderTraffic) {
  ServerConfig cfg;
  cfg.socket = test_socket("balance");
  cfg.threads = 2;
  RunningServer rs(cfg);
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client = connect_with_retry(cfg.socket, kConnectTimeoutMs);
      for (int i = 0; i < 8; ++i) {
        const std::string req =
            R"({"op":"generate","params":{"E":)" +
            std::to_string(5 + 2 * ((c + i) % 3)) + R"(,"b":64,"k":1}})";
        EXPECT_TRUE(ok_of(client.roundtrip(req)));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  const ServerStats stats = rs.drain();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.requests, 4u * 8u);
  EXPECT_EQ(stats.requests, stats.responses);  // the zero-drop invariant
}

}  // namespace
}  // namespace wcm::serve
