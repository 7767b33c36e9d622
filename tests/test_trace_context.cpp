// Request-tracing tests (docs/TELEMETRY.md "Request tracing"): the
// trace-context primitives (hex ids, scoped install/restore), span
// parent-chaining through nested scopes, propagation across the
// scheduler's thread hop via runtime::Job::trace, and the end-to-end causal
// tree — a batched 2-request wcmd dispatch under threads>1 must export
// one Chrome trace where every span of each request shares that request's
// trace_id across at least two threads, with parent links rooted at the
// serve.request span.

#include <gtest/gtest.h>
#include <unistd.h>

#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_context.hpp"
#include "util/json.hpp"

namespace wcm::telemetry {
namespace {

TEST(TraceHex, RoundTripsSixteenDigitLowercase) {
  EXPECT_EQ(trace_hex(0), "0000000000000000");
  EXPECT_EQ(trace_hex(0xa7), "00000000000000a7");
  EXPECT_EQ(trace_hex(~u64{0}), "ffffffffffffffff");
  for (const u64 v : {u64{1}, u64{0xdeadbeef}, u64{0x0123456789abcdefULL},
                      ~u64{0}}) {
    u64 parsed = 0;
    ASSERT_TRUE(parse_trace_hex(trace_hex(v), parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(TraceHex, ParseAcceptsShortFormsAndOptionalPrefix) {
  u64 v = 0;
  EXPECT_TRUE(parse_trace_hex("a7", v));
  EXPECT_EQ(v, 0xa7u);
  EXPECT_TRUE(parse_trace_hex("0xA7", v));
  EXPECT_EQ(v, 0xa7u);
  EXPECT_TRUE(parse_trace_hex("F", v));
  EXPECT_EQ(v, 0xfu);
}

TEST(TraceHex, ParseRejectsGarbage) {
  u64 v = 0;
  for (const char* bad :
       {"", "0x", "xyz", "12g4", "0123456789abcdef0",  // 17 digits
        " a7", "a7 ", "-1", "0x0x1"}) {
    EXPECT_FALSE(parse_trace_hex(bad, v)) << bad;
  }
}

TEST(TraceContextTest, IdsAreFreshAndNonZero) {
  const u64 a = next_trace_id();
  const u64 b = next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(next_span_id(), next_span_id());
}

TEST(TraceContextTest, ScopedInstallAndNestedRestore) {
  EXPECT_FALSE(current_trace_context().active());
  {
    TraceContext outer;
    outer.trace_id = 7;
    outer.span_id = 70;
    outer.tenant = "t-outer";
    const ScopedTraceContext outer_scope(outer);
    EXPECT_EQ(current_trace_context().trace_id, 7u);
    EXPECT_EQ(current_trace_context().tenant, "t-outer");
    {
      TraceContext inner;
      inner.trace_id = 8;
      inner.span_id = 80;
      const ScopedTraceContext inner_scope(inner);
      EXPECT_EQ(current_trace_context().trace_id, 8u);
    }
    EXPECT_EQ(current_trace_context().trace_id, 7u);
    EXPECT_EQ(current_trace_context().span_id, 70u);
  }
  EXPECT_FALSE(current_trace_context().active());
}

TEST(TraceContextTest, ScopedContextIsPerThread) {
  TraceContext ctx;
  ctx.trace_id = 11;
  const ScopedTraceContext scope(ctx);
  u64 other_thread_trace = ~u64{0};
  std::thread([&other_thread_trace] {
    other_thread_trace = current_trace_context().trace_id;
  }).join();
  EXPECT_EQ(other_thread_trace, 0u);
  EXPECT_EQ(current_trace_context().trace_id, 11u);
}

// ---- span parent-chaining ------------------------------------------------

/// Exported events of one Chrome trace, decoded for assertions.
struct ExportedSpan {
  std::string name;
  u64 tid = 0;
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_span_id = 0;
  std::string tenant;
  bool has_args = false;
};

std::vector<ExportedSpan> export_spans() {
  std::ostringstream os;
  write_chrome_trace(os);
  std::vector<ExportedSpan> out;
  const json::Value doc = json::parse(os.str());
  for (const json::Value& ev :
       doc.as_object().at("traceEvents").as_array()) {
    const json::Object& e = ev.as_object();
    ExportedSpan span;
    span.name = e.at("name").as_string();
    span.tid = e.at("tid").as_u64();
    const auto args = e.find("args");
    if (args != e.end()) {
      span.has_args = true;
      const json::Object& a = args->second.as_object();
      EXPECT_TRUE(parse_trace_hex(a.at("trace_id").as_string(),
                                  span.trace_id));
      EXPECT_TRUE(parse_trace_hex(a.at("span_id").as_string(),
                                  span.span_id));
      EXPECT_TRUE(parse_trace_hex(a.at("parent_span_id").as_string(),
                                  span.parent_span_id));
      span.tenant = a.at("tenant").as_string();
    }
    out.push_back(std::move(span));
  }
  return out;
}

struct TracingOn {
  TracingOn() {
    reset_trace();
    set_tracing(true);
  }
  ~TracingOn() {
    set_tracing(false);
    reset_trace();
  }
};

TEST(TraceSpans, NestedSpansChainParentIds) {
  const TracingOn guard;
  TraceContext ctx;
  ctx.trace_id = 0x77;
  ctx.tenant = "nest";
  {
    const ScopedTraceContext scope(ctx);
    WCM_SPAN("outer");
    { WCM_SPAN("inner"); }
  }
  { WCM_SPAN("untraced"); }  // no context: must export without args
  const auto spans = export_spans();
  ASSERT_EQ(spans.size(), 3u);
  const ExportedSpan* outer = nullptr;
  const ExportedSpan* inner = nullptr;
  const ExportedSpan* untraced = nullptr;
  for (const auto& s : spans) {
    if (s.name == "outer") {
      outer = &s;
    } else if (s.name == "inner") {
      inner = &s;
    } else if (s.name == "untraced") {
      untraced = &s;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(untraced, nullptr);
  EXPECT_TRUE(outer->has_args);
  EXPECT_TRUE(inner->has_args);
  EXPECT_FALSE(untraced->has_args);
  EXPECT_EQ(outer->trace_id, 0x77u);
  EXPECT_EQ(inner->trace_id, 0x77u);
  EXPECT_EQ(outer->tenant, "nest");
  EXPECT_EQ(outer->parent_span_id, 0u);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_NE(inner->span_id, outer->span_id);
}

TEST(TraceSpans, SchedulerJobInheritsTheJobOptionsContext) {
  const TracingOn guard;
  TraceContext ctx;
  ctx.trace_id = 0x99;
  ctx.span_id = 0x1234;  // pretend parent from the submitting thread
  ctx.tenant = "sched";
  std::vector<runtime::Job> jobs;
  jobs.push_back(runtime::Job{[] { WCM_SPAN("job.body"); }, {}, ctx});
  jobs.push_back(runtime::Job{[] {}, {}, {}});  // untraced job
  runtime::RunOptions ropts;
  ropts.threads = 2;
  EXPECT_TRUE(runtime::run(jobs, ropts).ok());
  const auto spans = export_spans();
  const ExportedSpan* job_span = nullptr;
  const ExportedSpan* body = nullptr;
  std::size_t untraced_jobs = 0;
  for (const auto& s : spans) {
    if (s.name == "scheduler.job" && s.has_args) {
      job_span = &s;
    } else if (s.name == "scheduler.job") {
      ++untraced_jobs;
    } else if (s.name == "job.body") {
      body = &s;
    }
  }
  ASSERT_NE(job_span, nullptr);
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(untraced_jobs, 1u);  // the context-free job exports bare
  EXPECT_EQ(job_span->trace_id, 0x99u);
  EXPECT_EQ(job_span->parent_span_id, 0x1234u);
  EXPECT_EQ(job_span->tenant, "sched");
  EXPECT_EQ(body->trace_id, 0x99u);
  EXPECT_EQ(body->parent_span_id, job_span->span_id);
}

// ---- end-to-end causal tree through the daemon ---------------------------

std::string test_socket(const std::string& suffix) {
  return "@wcm-trace-test-" + std::to_string(::getpid()) + "-" + suffix;
}

struct RunningServer {
  explicit RunningServer(serve::ServerConfig cfg) : server(std::move(cfg)) {
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
  void drain() {
    server.request_drain();
    thread.join();
    if (failure) {
      std::rethrow_exception(failure);
    }
  }
  serve::Server server;
  std::thread thread;
  std::exception_ptr failure;
};

TEST(TraceCausalTree, BatchedDispatchSharesTraceIdsAcrossThreads) {
  const TracingOn guard;
  serve::ServerConfig cfg;
  cfg.socket = test_socket("tree");
  cfg.threads = 2;  // the satellite demands WCM_THREADS>1 semantics
  {
    RunningServer rs(cfg);
    serve::Client client = serve::connect_with_retry(cfg.socket, 5000);
    // Two distinct requests (different canonicals, so neither joins the
    // other's flight) with client-chosen trace ids.
    client.send(
        R"({"op":"generate","id":"r1","params":{"E":5,"b":64,"k":1},)"
        R"("trace":{"trace_id":"a7"}})");
    client.send(
        R"({"op":"generate","id":"r2","params":{"E":7,"b":64,"k":1},)"
        R"("trace":{"trace_id":"b8","parent_span_id":"c9"}})");
    ASSERT_TRUE(client.recv_line().has_value());
    ASSERT_TRUE(client.recv_line().has_value());
    rs.drain();
  }

  const auto spans = export_spans();
  for (const u64 trace_id : {u64{0xa7}, u64{0xb8}}) {
    std::set<std::string> names;
    std::set<u64> tids;
    std::map<u64, u64> parent_of;  // span_id -> parent_span_id
    u64 request_span = 0;
    u64 request_parent = ~u64{0};
    for (const auto& s : spans) {
      if (!s.has_args || s.trace_id != trace_id) {
        continue;
      }
      names.insert(s.name);
      tids.insert(s.tid);
      parent_of[s.span_id] = s.parent_span_id;
      if (s.name == "serve.request") {
        request_span = s.span_id;
        request_parent = s.parent_span_id;
      }
      EXPECT_EQ(s.tenant, "default");
    }
    // The full causal chain: protocol read -> scheduler job (worker
    // thread, kernel work nested below) -> response write.
    EXPECT_TRUE(names.count("serve.request")) << trace_hex(trace_id);
    EXPECT_TRUE(names.count("scheduler.job")) << trace_hex(trace_id);
    EXPECT_TRUE(names.count("serve.generate")) << trace_hex(trace_id);
    EXPECT_TRUE(names.count("serve.respond")) << trace_hex(trace_id);
    EXPECT_GE(tids.size(), 2u) << trace_hex(trace_id);
    ASSERT_NE(request_span, 0u);
    // Every span of the request must reach serve.request by walking
    // parent links (the tree is rooted there; the root's parent is the
    // wire-provided parent_span_id or 0).
    for (const auto& [span_id, parent] : parent_of) {
      u64 cursor = span_id;
      std::size_t hops = 0;
      while (cursor != request_span && hops < 100) {
        const auto it = parent_of.find(cursor);
        if (it == parent_of.end()) {
          break;
        }
        cursor = it->second;
        ++hops;
      }
      if (span_id != request_span) {
        EXPECT_EQ(cursor, request_span)
            << "span " << trace_hex(span_id) << " of trace "
            << trace_hex(trace_id) << " is not rooted at serve.request";
      }
    }
    if (trace_id == 0xb8) {
      EXPECT_EQ(request_parent, 0xc9u);  // wire parent_span_id honored
    } else {
      EXPECT_EQ(request_parent, 0u);
    }
  }

  // The two requests' trees never share a span id.
  std::set<u64> a_spans;
  std::set<u64> b_spans;
  for (const auto& s : spans) {
    if (s.trace_id == 0xa7) {
      a_spans.insert(s.span_id);
    } else if (s.trace_id == 0xb8) {
      b_spans.insert(s.span_id);
    }
  }
  for (const u64 id : a_spans) {
    EXPECT_FALSE(b_spans.count(id));
  }
}

TEST(TraceCausalTree, DaemonMintsATraceIdWhenTheWireHasNone) {
  const TracingOn guard;
  serve::ServerConfig cfg;
  cfg.socket = test_socket("minted");
  {
    RunningServer rs(cfg);
    serve::Client client = serve::connect_with_retry(cfg.socket, 5000);
    ASSERT_FALSE(client
                     .roundtrip(R"({"op":"generate","id":"m",)"
                                R"("params":{"E":5,"b":64,"k":1}})")
                     .empty());
    rs.drain();
  }
  const auto spans = export_spans();
  u64 minted = 0;
  for (const auto& s : spans) {
    if (s.name == "serve.request") {
      EXPECT_TRUE(s.has_args);
      minted = s.trace_id;
    }
  }
  EXPECT_NE(minted, 0u);
  std::set<std::string> names;
  for (const auto& s : spans) {
    if (s.has_args && s.trace_id == minted) {
      names.insert(s.name);
    }
  }
  EXPECT_TRUE(names.count("scheduler.job"));
  EXPECT_TRUE(names.count("serve.respond"));
}

}  // namespace
}  // namespace wcm::telemetry
