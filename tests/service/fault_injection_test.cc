// Fault-injection and deadline suite for the service + engine stack:
// every test drives a real QueryService over loopback and forces the
// failure through a deterministic seam — a request deadline that
// provably fires mid-evaluation, an armed failpoint in the dispatch /
// submit / delta / socket-write path, or a graceful drain racing
// in-flight work. The headline contract under every fault: structured
// error responses (never dropped connections without a reason), no
// partial state in any cache, and a service that keeps answering the
// very next request.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "gen/synthetic_gen.h"
#include "service/client.h"
#include "service/query_service.h"
#include "testing/self_sizing.h"
#include "testing/work_stats.h"

namespace qgp::service {
namespace {

using Clock = std::chrono::steady_clock;
using testing::ExpectSameWork;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Graph MakeGraph(uint64_t seed, size_t vertices = 60) {
  SyntheticConfig gc;
  gc.num_vertices = vertices;
  gc.num_edges = vertices * 3;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

using testing::SlowCase;
using testing::Slow;

ServiceRequest SlowRequest(const std::string& tag) {
  ServiceRequest request;
  request.pattern_text = Slow().pattern_text;
  request.algo = EngineAlgo::kQMatch;
  request.tag = tag;
  return request;
}

/// Every test disarms on exit so a failed assertion cannot leak an
/// armed failpoint into the next test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// The acceptance scenario end to end: a query whose clean runtime is
// hundreds of milliseconds, submitted over the wire with timeout_ms=50,
// comes back as a structured DeadlineExceeded well under the clean
// runtime; the dispatch worker is immediately reusable; the timed-out
// run admitted nothing into any cache, so the clean re-run is
// byte-identical — answers, work counters, AND cache traffic — to a
// reference engine that never saw a timeout.
TEST_F(FaultInjectionTest, DeadlineExceededLoopbackEndToEnd) {
  SlowCase& slow = Slow();

  // Reference: a never-cancelled engine. Its first (cold) run provides
  // the clean wall-clock bound and the expected cache-miss profile.
  QuerySpec ref_spec;
  ref_spec.pattern = std::move(PatternParser::Parse(
                                   slow.pattern_text,
                                   slow.graph.mutable_dict()))
                         .value();
  ref_spec.algo = EngineAlgo::kQMatch;
  QueryEngine reference(&slow.graph, EngineOptions{});
  const auto ref_t0 = Clock::now();
  auto expected = reference.Submit(ref_spec);
  const double clean_ms = MsSince(ref_t0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(clean_ms, testing::kSlowCaseMinMs)
      << "the slow case finished too fast to prove a mid-evaluation "
         "timeout on this machine; widen the graph";

  EngineOptions engine_options;
  engine_options.enable_result_cache = true;
  QueryEngine engine(&slow.graph, engine_options);
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The timed-out query: a structured DeadlineExceeded, well before a
  // clean evaluation could possibly have finished.
  ServiceRequest timed = SlowRequest("slow-timed");
  timed.timeout_ms = 50;
  const auto t0 = Clock::now();
  auto response = client->Call(timed);
  const double elapsed_ms = MsSince(t0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "DeadlineExceeded");
  EXPECT_EQ(response->tag, "slow-timed");
  EXPECT_LT(elapsed_ms, clean_ms / 2)
      << "the deadline did not interrupt the evaluation (clean run: "
      << clean_ms << " ms)";

  // Nothing the aborted run computed reached any cache.
  EXPECT_EQ(engine.cache().size(), 0u) << "candidate sets leaked";
  EXPECT_EQ(engine.ClearResultCache(), 0u) << "a partial result leaked";
  EXPECT_EQ(engine.stats().timeouts, 1u);
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().queries, 0u);

  // The worker is immediately reusable, and the clean re-run matches
  // the never-cancelled reference bit for bit — including the cache
  // traffic, which proves the rollback was complete (a leaked set would
  // surface as an extra hit / missing miss).
  ServiceRequest clean = SlowRequest("slow-clean");
  auto clean_response = client->Call(clean);
  ASSERT_TRUE(clean_response.ok()) << clean_response.status().ToString();
  ASSERT_TRUE(clean_response->ok) << clean_response->error_message;
  EXPECT_EQ(clean_response->answers, expected->answers);
  ExpectSameWork(clean_response->stats, expected->stats, "clean-after-timeout");
  EXPECT_EQ(clean_response->cache_hits, expected->cache_hits);
  EXPECT_EQ(clean_response->cache_misses, expected->cache_misses);
  EXPECT_FALSE(clean_response->result_cache_hit);

  // And the result cache works from here on — the timeout did not
  // poison the key space either.
  auto repeat = client->Call(clean);
  ASSERT_TRUE(repeat.ok());
  ASSERT_TRUE(repeat->ok);
  EXPECT_TRUE(repeat->result_cache_hit);
  EXPECT_EQ(repeat->answers, expected->answers);

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.shed, 0u);
  server.Stop();
}

// Queue-age shedding: a request whose deadline expires while it waits
// in the dispatch queue is answered DeadlineExceeded at dequeue without
// ever touching the engine. The delay failpoint stalls the dispatch
// worker deterministically — no sleeps racing real work.
TEST_F(FaultInjectionTest, QueueAgedRequestIsShedWithoutTouchingEngine) {
  Graph g = MakeGraph(7);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  failpoint::Action stall;
  stall.kind = failpoint::Action::Kind::kDelayMs;
  stall.delay_ms = 150;
  stall.once = true;
  failpoint::Arm("service.dispatch_dequeue", stall);
  ServiceRequest request;
  request.pattern_text = "node a nl0\nfocus a\n";
  request.timeout_ms = 40;  // expires inside the 150 ms dequeue stall
  request.tag = "aged-out";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "DeadlineExceeded");
  EXPECT_EQ(response->tag, "aged-out");
  EXPECT_GE(failpoint::HitCount("service.dispatch_dequeue"), 1u);

  // The engine never saw it; the service counted it as shed, not as an
  // evaluation failure.
  EXPECT_EQ(engine.stats().queries, 0u);
  EXPECT_EQ(engine.stats().failed, 0u);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().queries_failed, 0u);

  // Same request with headroom sails through.
  request.timeout_ms = 30000;
  request.tag = "fresh";
  auto fresh = client->Call(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ok) << fresh->error_message;
  server.Stop();
}

// An error armed in the dispatch seam produces a structured response
// carrying the injected code, and — with `once` — the very next request
// on the same connection succeeds.
TEST_F(FaultInjectionTest, DispatchSeamErrorIsStructuredAndTransient) {
  Graph g = MakeGraph(13);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  failpoint::Arm("service.dispatch_dequeue",
                 {.kind = failpoint::Action::Kind::kError,
                  .code = StatusCode::kInternal,
                  .message = "injected dispatch fault",
                  .once = true});
  ServiceRequest request;
  request.pattern_text = "node a nl0\nfocus a\n";
  request.tag = "faulted";
  auto faulted = client->Call(request);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_FALSE(faulted->ok);
  EXPECT_EQ(faulted->error_code, "Internal");
  EXPECT_NE(faulted->error_message.find("injected dispatch fault"),
            std::string::npos)
      << faulted->error_message;

  request.tag = "healthy";
  auto healthy = client->Call(request);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->ok) << healthy->error_message;
  EXPECT_EQ(failpoint::HitCount("service.dispatch_dequeue"), 1u);
  server.Stop();
}

// The client retry loop against a transient engine fault: one injected
// kUnavailable from the engine.submit seam, a CallWithRetry policy of
// 3 attempts — the caller sees one successful response and the seam
// fired exactly once.
TEST_F(FaultInjectionTest, ClientRetriesInjectedUnavailable) {
  Graph g = MakeGraph(17);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 5;
  auto client = ServiceClient::Connect(server.port(), "127.0.0.1", options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  failpoint::Arm("engine.submit",
                 {.kind = failpoint::Action::Kind::kError,
                  .code = StatusCode::kUnavailable,
                  .message = "injected engine overload",
                  .once = true});
  ServiceRequest request;
  request.pattern_text = "node a nl0\nfocus a\n";
  request.tag = "retried";
  auto response = client->CallWithRetry(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok) << response->error_message;
  EXPECT_EQ(response->tag, "retried");
  EXPECT_EQ(failpoint::HitCount("engine.submit"), 1u);
  // Attempt 1 failed at the seam (before evaluation), attempt 2 ran.
  EXPECT_EQ(engine.stats().queries, 1u);
  EXPECT_EQ(server.stats().queries_failed, 1u);
  EXPECT_EQ(server.stats().queries_ok, 1u);
  server.Stop();
}

// A dropped response (socket-write seam): the client's read timeout
// turns the silent loss into kDeadlineExceeded instead of a hang, and —
// per the documented contract that the stream position is ambiguous
// after a read timeout — a reconnect restores service.
TEST_F(FaultInjectionTest, DroppedResponseTimesOutAndReconnectRecovers) {
  Graph g = MakeGraph(19);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.read_timeout_ms = 250;
  auto client = ServiceClient::Connect(server.port(), "127.0.0.1", options);
  ASSERT_TRUE(client.ok());

  failpoint::Arm("service.socket_write",
                 {.kind = failpoint::Action::Kind::kError,
                  .code = StatusCode::kIoError,
                  .message = "injected write loss",
                  .once = true});
  ServiceRequest request;
  request.pattern_text = "node a nl0\nfocus a\n";
  request.tag = "lost";
  auto lost = client->Call(request);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kDeadlineExceeded)
      << lost.status().ToString();
  EXPECT_GE(failpoint::HitCount("service.socket_write"), 1u);

  auto fresh = ServiceClient::Connect(server.port(), "127.0.0.1", options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  request.tag = "recovered";
  auto recovered = fresh->Call(request);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->ok) << recovered->error_message;
  server.Stop();
}

// A delta that fails inside the engine seam: structured error, graph
// version untouched, and the identical delta succeeds once the fault
// clears — the failed attempt left no partial mutation behind.
TEST_F(FaultInjectionTest, DeltaSeamFailureLeavesGraphUntouched) {
  Graph g = MakeGraph(29);
  QueryEngine engine(std::move(g), EngineOptions{});
  const uint64_t v0 = engine.graph_version();
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  failpoint::Arm("engine.apply_delta",
                 {.kind = failpoint::Action::Kind::kError,
                  .code = StatusCode::kIoError,
                  .message = "injected apply fault",
                  .once = true});
  ServiceRequest mutation;
  mutation.op = ServiceRequest::Op::kDelta;
  mutation.delta.add_vertices = {"novel"};
  mutation.tag = "d-faulted";
  auto faulted = client->Call(mutation);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_FALSE(faulted->ok);
  EXPECT_EQ(faulted->error_code, "IoError");
  EXPECT_EQ(engine.graph_version(), v0);
  EXPECT_EQ(server.stats().deltas_failed, 1u);

  mutation.tag = "d-applied";
  auto applied = client->Call(mutation);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->ok) << applied->error_message;
  EXPECT_EQ(applied->graph_version, v0 + 1);
  EXPECT_EQ(server.stats().deltas_ok, 1u);
  server.Stop();
}

// Graceful drain under load: one dispatch worker, a slow query
// in-flight plus two pipelined behind it, and a Stop() whose natural-
// drain budget cannot possibly cover the backlog. Every admitted
// request still gets a response before its socket closes — the
// in-flight evaluation unwinds with kCancelled, the queued ones are
// shed with kCancelled at dequeue — and the engine's cancellation
// counter proves the unwind came from the drain token, not a timeout.
TEST_F(FaultInjectionTest, DrainCancelsInFlightAndShedsQueued) {
  SlowCase& slow = Slow();
  QueryEngine engine(&slow.graph, EngineOptions{});
  ServiceOptions options;
  options.dispatch_threads = 1;  // deterministic: one in-flight, two queued
  options.drain_timeout_ms = 50;
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Send(SlowRequest("drain-" + std::to_string(i))).ok());
  }
  // Let the single worker pop request 0 and get well into evaluation
  // (the slow case runs hundreds of milliseconds).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();

  for (int i = 0; i < 3; ++i) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok())
        << "request " << i
        << " got no response before close: " << response.status().ToString();
    EXPECT_FALSE(response->ok) << "request " << i
                               << " outran the drain - widen the slow case";
    EXPECT_EQ(response->error_code, "Cancelled") << "request " << i;
    EXPECT_EQ(response->tag, "drain-" + std::to_string(i));
  }
  EXPECT_EQ(engine.stats().cancellations, 1u);
  EXPECT_EQ(server.stats().shed, 2u);
  EXPECT_EQ(server.stats().queries_failed, 1u);
}

// Connecting to a dead port fails fast with the retryable kUnavailable,
// not a hang — the connect timeout is the ceiling, ECONNREFUSED the
// usual fast path.
TEST_F(FaultInjectionTest, ConnectToDeadPortFailsFast) {
  // Grab a port that was just live, then stop the server so nothing
  // listens there.
  Graph g = MakeGraph(37);
  QueryEngine engine(&g, EngineOptions{});
  int dead_port = 0;
  {
    QueryService server(&engine, ServiceOptions{});
    ASSERT_TRUE(server.Start().ok());
    dead_port = server.port();
    server.Stop();
  }
  ClientOptions options;
  options.connect_timeout_ms = 1000;
  const auto t0 = Clock::now();
  auto client = ServiceClient::Connect(dead_port, "127.0.0.1", options);
  const double elapsed_ms = MsSince(t0);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable)
      << client.status().ToString();
  EXPECT_LT(elapsed_ms, 3000.0);
}

}  // namespace
}  // namespace qgp::service
