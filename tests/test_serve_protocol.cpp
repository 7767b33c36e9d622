// Wire-protocol and tenant-cache units of the wcmd daemon: request
// parsing (strict-JSON line protocol, unknown-field/param rejection),
// canonicalization (the dedup and cache key), response rendering, the
// error taxonomy mapping, and the multi-tenant LRU response cache with
// its WCMS on-disk format.  The daemon end-to-end paths live in
// test_serve_daemon.cpp; the CLI gate in tests/serve_ci.cmake.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/tenant_cache.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace wcm::serve {
namespace {

// ---- parse_request --------------------------------------------------------

TEST(ServeProtocol, ParsesFullRequest) {
  const Request req = parse_request(
      R"({"op":"generate","id":"r1","tenant":"ci","deadline_ms":2000,)"
      R"("params":{"E":5,"b":64}})");
  EXPECT_EQ(req.op, "generate");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.tenant, "ci");
  EXPECT_EQ(req.deadline_ms, 2000u);
  EXPECT_EQ(req.params.size(), 2u);
}

TEST(ServeProtocol, DefaultsOptionalFields) {
  const Request req = parse_request(R"({"op":"health"})");
  EXPECT_EQ(req.id, "");
  EXPECT_EQ(req.tenant, "default");
  EXPECT_EQ(req.deadline_ms, 0u);
  EXPECT_TRUE(req.params.empty());
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW((void)parse_request("not json"), parse_error);
  EXPECT_THROW((void)parse_request("[1,2]"), parse_error);       // non-object
  EXPECT_THROW((void)parse_request(R"({"id":"x"})"), parse_error);  // no op
  EXPECT_THROW((void)parse_request(R"({"op":"health","bogus":1})"),
               parse_error);  // unknown field
  EXPECT_THROW((void)parse_request(R"({"op":1})"), parse_error);  // bad type
  EXPECT_THROW((void)parse_request(R"({"op":"health","tenant":""})"),
               parse_error);
  EXPECT_THROW(
      (void)parse_request(R"({"op":"health","tenant":")" +
                          std::string(65, 'x') + R"("})"),
      parse_error);
  EXPECT_THROW(
      (void)parse_request(R"({"op":"health","deadline_ms":3600001})"),
      parse_error);
  // Strict JSON: the parser rejects duplicate keys rather than letting
  // the last one silently win.
  EXPECT_THROW((void)parse_request(R"({"op":"health","op":"metrics"})"),
               parse_error);
}

// ---- the trace field ------------------------------------------------------

TEST(ServeProtocol, ParsesTraceIds) {
  const Request req = parse_request(
      R"({"op":"generate","id":"r1","trace":)"
      R"({"trace_id":"00000000000000ab","parent_span_id":"cd"}})");
  EXPECT_EQ(req.trace_id, 0xabu);
  EXPECT_EQ(req.parent_span_id, 0xcdu);
}

TEST(ServeProtocol, TraceAcceptsShortAndPrefixedHex) {
  EXPECT_EQ(parse_request(R"({"op":"health","trace":{"trace_id":"a1"}})")
                .trace_id,
            0xa1u);
  EXPECT_EQ(parse_request(R"({"op":"health","trace":{"trace_id":"0xA1"}})")
                .trace_id,
            0xa1u);
  EXPECT_EQ(parse_request(R"({"op":"health"})").trace_id, 0u);
}

TEST(ServeProtocol, CorruptTraceFieldsDegradeToAbsentNeverThrow) {
  // The tolerant-parse contract (docs/SERVE.md): observability metadata
  // must never cost a response.  Every insult parses; the ids stay 0.
  const char* corpus[] = {
      R"({"op":"health","trace":1})",                        // non-object
      R"({"op":"health","trace":"a1"})",                     // non-object
      R"({"op":"health","trace":[]})",                       // non-object
      R"({"op":"health","trace":{"trace_id":17}})",          // non-string id
      R"({"op":"health","trace":{"trace_id":"zz"}})",        // non-hex
      R"({"op":"health","trace":{"trace_id":""}})",          // empty
      R"({"op":"health","trace":{"trace_id":"0x"}})",        // digitless
      R"({"op":"health","trace":{"trace_id":"a1 "}})",       // whitespace
      R"({"op":"health","trace":{"trace_id":"-1"}})",        // sign
      R"({"op":"health","trace":{"trace_id":"12345678901234567"}})",  // 17
      R"({"op":"health","trace":{"parent_span_id":null}})",  // non-string
  };
  for (const char* line : corpus) {
    const Request req = parse_request(line);  // must not throw
    EXPECT_EQ(req.trace_id, 0u) << line;
    EXPECT_EQ(req.parent_span_id, 0u) << line;
  }
  // Unknown trace subkeys are ignored (forward compatibility), and do
  // not poison the known ones.
  const Request req = parse_request(
      R"({"op":"health","trace":{"baggage":"x","trace_id":"a1"}})");
  EXPECT_EQ(req.trace_id, 0xa1u);
}

TEST(ServeProtocol, CorruptTraceBumpsTheInvalidCounter) {
  telemetry::registry().reset();
  telemetry::set_enabled(true);
  (void)parse_request(R"({"op":"health","trace":{"trace_id":"zz"}})");
  (void)parse_request(R"({"op":"health","trace":17})");
  telemetry::set_enabled(false);
  EXPECT_EQ(telemetry::registry().snapshot().counter_total(
                "serve.trace.invalid"),
            2u);
  telemetry::registry().reset();
}

// ---- canonical_request ----------------------------------------------------

Request req_of(const std::string& line) { return parse_request(line); }

TEST(ServeProtocol, CanonicalAppliesDefaults) {
  EXPECT_EQ(canonical_request(req_of(R"({"op":"generate"})")),
            "generate|E=15|b=512|w=32|pad=0|layout=linear|k=4|seed=1"
            "|strategy=front-to-back|intra=0");
}

TEST(ServeProtocol, CanonicalIndependentOfFieldOrderTenantAndId) {
  const auto a = canonical_request(
      req_of(R"({"op":"generate","params":{"E":5,"b":64},"tenant":"a"})"));
  const auto b = canonical_request(req_of(
      R"({"id":"z","tenant":"b","params":{"b":64,"E":5},"op":"generate"})"));
  EXPECT_EQ(a, b);
  const auto c = canonical_request(
      req_of(R"({"op":"generate","params":{"E":7,"b":64}})"));
  EXPECT_NE(a, c);
}

TEST(ServeProtocol, CanonicalRejectsUnknownAndIllTypedParams) {
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"generate","params":{"bogus":1}})")),
               parse_error);
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"generate","params":{"E":"five"}})")),
               parse_error);
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"generate","params":{"layout":"spiral"}})")),
               parse_error);
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"generate","params":{"strategy":"sideways"}})")),
               parse_error);
  // Admin ops reject unknown params (metrics knows only "format").
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"metrics","params":{"x":1}})")),
               parse_error);
}

TEST(ServeProtocol, CanonicalIgnoresTheTraceField) {
  // The trace is observability metadata: it must never split the dedup /
  // cache key (two identical asks with different traces share one
  // computation) and never leak into response bytes.
  const auto bare = canonical_request(
      req_of(R"({"op":"generate","params":{"E":5,"b":64}})"));
  const auto traced = canonical_request(req_of(
      R"({"op":"generate","params":{"E":5,"b":64},)"
      R"("trace":{"trace_id":"a1","parent_span_id":"b2"}})"));
  EXPECT_EQ(bare, traced);
}

TEST(ServeProtocol, CanonicalMetricsCarriesTheFormat) {
  EXPECT_EQ(canonical_request(req_of(R"({"op":"metrics"})")),
            "metrics|format=json");
  EXPECT_EQ(canonical_request(req_of(
                R"({"op":"metrics","params":{"format":"prometheus"}})")),
            "metrics|format=prometheus");
  EXPECT_EQ(canonical_request(req_of(
                R"({"op":"metrics","params":{"format":"text"}})")),
            "metrics|format=text");
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"metrics","params":{"format":"xml"}})")),
               parse_error);
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"metrics","params":{"format":17}})")),
               parse_error);
}

TEST(ServeProtocol, CanonicalCampaignNormalizesSpecKeyOrder) {
  const auto a = canonical_request(req_of(
      R"({"op":"campaign","params":{"spec":{"name":"s","engines":["x"]}}})"));
  const auto b = canonical_request(req_of(
      R"({"op":"campaign","params":{"spec":{"engines":["x"],"name":"s"}}})"));
  EXPECT_EQ(a, b);
  EXPECT_THROW(canonical_request(req_of(R"({"op":"campaign"})")),
               parse_error);  // spec is required
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"campaign","params":{"spec":7}})")),
               parse_error);  // ...and must be an object
}

TEST(ServeProtocol, CanonicalCertifyJoinsGridAxes) {
  EXPECT_EQ(canonical_request(req_of(
                R"({"op":"certify","params":{"bs":[64,128],"pads":[0,1]}})")),
            "certify|engine=shearsort|w=32|bs=64,128|pads=0,1|layout=linear"
            "|E_min=3|E_max=0|any_E=0|ways=4|digit_bits=4");
  EXPECT_THROW(canonical_request(req_of(
                   R"({"op":"certify","params":{"bs":[]}})")),
               parse_error);  // empty grid axis
}

// ---- execute --------------------------------------------------------------

// The daemon's prove op and `wcmgen prove --json` read the same param
// declaration and render through the same prover, so a request with only
// engine and pad set must answer exactly the committed CLI goldens
// (re-serialized, as the daemon renders one sorted-key line).
TEST(ServeExecute, ProveMatchesTheCliGoldens) {
  for (const char* engine : {"blocksort", "block-merge", "pairwise",
                             "multiway", "bitonic", "radix", "scan",
                             "shearsort"}) {
    for (const int pad : {0, 1}) {
      const std::string golden_path = std::string(WCM_GOLDEN_DIR) +
                                      "/prove_" + engine + "_pad" +
                                      std::to_string(pad) + ".json";
      std::ifstream is(golden_path);
      ASSERT_TRUE(is) << golden_path;
      const std::string golden((std::istreambuf_iterator<char>(is)),
                               std::istreambuf_iterator<char>());
      const Request req = req_of(
          std::string(R"({"op":"prove","params":{"engine":")") + engine +
          R"(","pad":)" + std::to_string(pad) + "}}");
      EXPECT_EQ(execute(req, ServerConfig{}, nullptr),
                json::to_text(json::parse(golden)))
          << engine << " pad " << pad;
    }
  }
}

// ---- responses ------------------------------------------------------------

TEST(ServeProtocol, RendersResponses) {
  EXPECT_EQ(ok_response("r1", R"({"n":1})"),
            R"({"id":"r1","ok":true,"result":{"n":1}})");
  EXPECT_EQ(error_response("r2", ErrorType::too_large, "big"),
            R"({"error":{"message":"big","type":"too_large"},"id":"r2",)"
            R"("ok":false})");
  // Ids and messages are JSON-escaped, never spliced raw.
  EXPECT_EQ(error_response("a\"b", ErrorType::parse, "x\ny"),
            "{\"error\":{\"message\":\"x\\ny\",\"type\":\"parse\"},"
            "\"id\":\"a\\\"b\",\"ok\":false}");
}

TEST(ServeProtocol, ResponsesRoundTripThroughTheParser) {
  const auto doc = json::parse(ok_response("r", R"({"a":[1,2]})"));
  EXPECT_TRUE(doc.as_object().at("ok").as_bool());
  const auto err =
      json::parse(error_response("r", ErrorType::overloaded, "full"));
  EXPECT_EQ(err.as_object().at("error").as_object().at("type").as_string(),
            "overloaded");
}

// ---- error taxonomy -------------------------------------------------------

TEST(ServeProtocol, ErrorTypeOfMapsTheTaxonomy) {
  EXPECT_EQ(error_type_of(parse_error("x")), ErrorType::parse);
  EXPECT_EQ(error_type_of(io_error("x")), ErrorType::io);
  EXPECT_EQ(error_type_of(config_error("x")), ErrorType::config);
  EXPECT_EQ(error_type_of(interrupted_error("x")), ErrorType::interrupted);
  // Simulator invariants are daemon-side bugs (internal); remaining
  // contract violations are bad request parameters (config).
  EXPECT_EQ(error_type_of(simulation_error("x")), ErrorType::internal);
  EXPECT_EQ(error_type_of(contract_error("x")), ErrorType::config);
  EXPECT_EQ(error_type_of(std::runtime_error("x")), ErrorType::internal);
}

// ---- TenantCache ----------------------------------------------------------

TEST(TenantCache, InsertLookupAndRecency) {
  TenantCache cache(/*salt=*/1, /*max_entries_per_tenant=*/2);
  cache.insert("a", 1, "one");
  cache.insert("a", 2, "two");
  EXPECT_EQ(cache.lookup("a", 1).value_or(""), "one");  // 1 is now hottest
  cache.insert("a", 3, "three");                        // evicts 2
  EXPECT_TRUE(cache.lookup("a", 1).has_value());
  EXPECT_FALSE(cache.lookup("a", 2).has_value());
  EXPECT_TRUE(cache.lookup("a", 3).has_value());
  EXPECT_EQ(cache.size("a"), 2u);
}

TEST(TenantCache, QuotasArePerTenant) {
  TenantCache cache(1, 1);
  cache.insert("a", 1, "a1");
  cache.insert("b", 1, "b1");
  cache.insert("a", 2, "a2");  // evicts a's 1, never b's
  EXPECT_FALSE(cache.lookup("a", 1).has_value());
  EXPECT_TRUE(cache.lookup("b", 1).has_value());
  EXPECT_EQ(cache.total_size(), 2u);
}

TEST(TenantCache, ReinsertIsIdempotent) {
  TenantCache cache(1, 4);
  cache.insert("a", 1, "one");
  cache.insert("a", 1, "one");  // a shared flight's second waiter
  EXPECT_EQ(cache.size("a"), 1u);
  EXPECT_EQ(cache.lookup("a", 1).value_or(""), "one");
}

TEST(TenantCache, KeyOfDependsOnSalt) {
  const TenantCache a(1, 0);
  const TenantCache b(2, 0);
  EXPECT_EQ(a.key_of("generate|E=5"), a.key_of("generate|E=5"));
  EXPECT_NE(a.key_of("generate|E=5"), b.key_of("generate|E=5"));
  EXPECT_NE(a.key_of("generate|E=5"), a.key_of("generate|E=7"));
}

struct WcmsFile : ::testing::Test {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("wcms_test_" + std::to_string(::getpid()) + ".wcms");
  void TearDown() override { std::filesystem::remove(path); }
};

TEST_F(WcmsFile, RoundTripsEntries) {
  TenantCache cache(7, 0);
  cache.insert("a", 1, "one");
  cache.insert("b", 2, "two");
  cache.store(path);
  TenantCache warmed = TenantCache::load(path, 7);
  EXPECT_EQ(warmed.lookup("a", 1).value_or(""), "one");
  EXPECT_EQ(warmed.lookup("b", 2).value_or(""), "two");
  EXPECT_EQ(warmed.total_size(), 2u);
}

TEST_F(WcmsFile, StoresDeterministically) {
  const auto bytes_of = [this](const TenantCache& c) {
    c.store(path);
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  TenantCache a(7, 0);
  a.insert("t", 2, "two");
  a.insert("t", 1, "one");
  TenantCache b(7, 0);
  b.insert("t", 1, "one");
  b.insert("t", 2, "two");
  EXPECT_EQ(bytes_of(a), bytes_of(b));  // (tenant, key) order, not history
}

TEST_F(WcmsFile, SaltMismatchStartsCold) {
  TenantCache cache(7, 0);
  cache.insert("a", 1, "one");
  cache.store(path);
  EXPECT_EQ(TenantCache::load(path, 8).total_size(), 0u);
}

TEST_F(WcmsFile, MissingFileStartsCold) {
  EXPECT_EQ(TenantCache::load(path, 7).total_size(), 0u);
}

TEST_F(WcmsFile, FailedStoreKeepsThePreviousFile) {
  const auto bytes_of = [this] {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  TenantCache cache(7, 0);
  cache.insert("a", 1, "one");
  cache.store(path);
  const std::string before = bytes_of();
  cache.insert("b", 2, "two");
  {
    failpoint::scoped_arm fp("runtime.cache.store");
    EXPECT_THROW(cache.store(path), io_error);
  }
  EXPECT_EQ(bytes_of(), before);
  const std::string prefix = path.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(path.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << entry.path();
  }
  TenantCache warmed = TenantCache::load(path, 7);
  EXPECT_EQ(warmed.total_size(), 1u);
  EXPECT_EQ(warmed.lookup("a", 1).value_or(""), "one");
}

TEST_F(WcmsFile, CorruptFileThrows) {
  TenantCache cache(7, 0);
  cache.insert("a", 1, "one");
  cache.store(path);
  // Flip one payload byte: the FNV checksum must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(30);
  f.put('\x7f');
  f.close();
  EXPECT_THROW((void)TenantCache::load(path, 7), io_error);
  std::ofstream(path, std::ios::trunc) << "WCMS";  // truncated header
  EXPECT_THROW((void)TenantCache::load(path, 7), io_error);
}

}  // namespace
}  // namespace wcm::serve
