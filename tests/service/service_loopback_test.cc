// Loopback differential suite for the network query service: a real
// QueryService on an ephemeral 127.0.0.1 port, driven by real
// ServiceClients. The headline contract: answers and MatchStats work
// counters that come back over the wire are identical to direct
// QueryEngine::RunBatch calls — under at least 4 concurrent client
// connections — so the network layer is a pure transport; the answers
// also equal the Enum baseline's, called directly. Around it:
// malformed input gets structured errors without killing the
// connection, the per-client admission limit rejects while the engine
// is busy, the stats op answers while a long batch is mid-flight, and
// the shutdown op is honored only when enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/enum_matcher.h"
#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "service/client.h"
#include "service/query_service.h"
#include "testing/self_sizing.h"

namespace qgp::service {
namespace {

Graph MakeGraph(uint64_t seed, size_t vertices = 60) {
  SyntheticConfig gc;
  gc.num_vertices = vertices;
  gc.num_edges = vertices * 3;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

/// A mixed workload as wire requests: two pattern families, matchers
/// rotating qmatch / QMatchn (qmatch with use_incremental_negation =
/// false) / auto, pattern text produced by the parser's own serializer.
std::vector<ServiceRequest> MakeWorkload(Graph& g, uint64_t seed) {
  PatternGenConfig small;
  small.num_nodes = 4;
  small.num_edges = 4;
  small.num_quantified = 1;
  PatternGenConfig larger;
  larger.num_nodes = 5;
  larger.num_edges = 5;
  larger.num_quantified = 2;
  larger.num_negated = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 4, small, seed * 3 + 1);
  std::vector<Pattern> b = GeneratePatternSuite(g, 3, larger, seed * 7 + 5);
  patterns.insert(patterns.end(), b.begin(), b.end());

  struct Matcher {
    EngineAlgo algo;
    bool incremental_negation;
  };
  const Matcher matchers[] = {{EngineAlgo::kQMatch, true},
                              {EngineAlgo::kQMatch, false},
                              {EngineAlgo::kAuto, true}};
  std::vector<ServiceRequest> workload;
  for (size_t i = 0; i < patterns.size(); ++i) {
    ServiceRequest request;
    request.pattern_text = PatternParser::Serialize(patterns[i], g.dict());
    request.algo = matchers[i % 3].algo;
    request.options.use_incremental_negation =
        matchers[i % 3].incremental_negation;
    request.tag = "q" + std::to_string(i);
    workload.push_back(std::move(request));
  }
  return workload;
}

/// The same workload as engine specs, parsed against the graph's own
/// dictionary — the reference side of the differential.
std::vector<QuerySpec> AsSpecs(const std::vector<ServiceRequest>& workload,
                               Graph& g) {
  std::vector<QuerySpec> specs;
  for (const ServiceRequest& request : workload) {
    QuerySpec spec;
    spec.pattern = std::move(PatternParser::Parse(request.pattern_text,
                                                  g.mutable_dict()))
                       .value();
    spec.algo = request.algo;
    spec.options = request.options;
    spec.tag = request.tag;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// How long a busy batch must keep the engine busy: the probes racing it
/// (a connect plus a few round trips) finish well inside this.
constexpr double kBusyWindowMs = 250.0;

std::vector<QuerySpec> Repeated(const std::vector<QuerySpec>& specs,
                                size_t repeats) {
  std::vector<QuerySpec> batch;
  for (size_t r = 0; r < repeats; ++r) {
    batch.insert(batch.end(), specs.begin(), specs.end());
  }
  return batch;
}

/// `specs` repeated until a clean RunBatch on a fresh default engine
/// outlasts kBusyWindowMs twice over on this host — the busy window the
/// probes must land in. The engine admission lock is held across the
/// whole RunBatch. One timing per size: the window is generous, so an
/// inflated timing costs at most one doubling of slack.
std::vector<QuerySpec> BusyBatch(const Graph& g,
                                 const std::vector<QuerySpec>& specs) {
  const size_t repeats = testing::GrowUntilSlow(
      60, kBusyWindowMs,
      [&](size_t r) {
        QueryEngine engine(&g, EngineOptions{});
        const std::vector<QuerySpec> batch = Repeated(specs, r);
        return testing::TimeMs([&] { (void)engine.RunBatch(batch); });
      },
      /*trials=*/1);
  return Repeated(specs, repeats);
}

/// Blocks until RunBatch on another thread holds the admission lock
/// (its first query has completed), so requests sent afterwards really
/// queue behind the batch rather than racing its start.
void AwaitBatchStarted(const QueryEngine& engine,
                       const std::atomic<bool>& batch_done) {
  while (engine.stats().queries == 0 && !batch_done.load()) {
    std::this_thread::yield();
  }
}

/// Work-counter identity modulo scheduler telemetry — the same
/// comparison the engine differential suite uses.
void ExpectSameWork(const MatchStats& a, const MatchStats& b,
                    const std::string& context) {
  EXPECT_EQ(a.isomorphisms_enumerated, b.isomorphisms_enumerated) << context;
  EXPECT_EQ(a.witness_searches, b.witness_searches) << context;
  EXPECT_EQ(a.search_extensions, b.search_extensions) << context;
  EXPECT_EQ(a.candidates_initial, b.candidates_initial) << context;
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned) << context;
  EXPECT_EQ(a.focus_candidates_checked, b.focus_candidates_checked) << context;
  EXPECT_EQ(a.inc_candidates_checked, b.inc_candidates_checked) << context;
  EXPECT_EQ(a.balls_built, b.balls_built) << context;
}

// The headline differential: 4 concurrent client connections each
// replay the full workload; every response must be answer- and
// work-counter-identical to a direct RunBatch on a reference engine.
TEST(ServiceLoopbackTest, ConcurrentClientsMatchDirectEngineRuns) {
  Graph g = MakeGraph(11);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 11);
  std::vector<QuerySpec> specs = AsSpecs(workload, g);

  QueryEngine reference(&g, EngineOptions{});
  auto expected = reference.RunBatch(specs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), workload.size());
  MatchOptions capped;
  capped.max_isomorphisms = 2'000'000;
  size_t enum_checked = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto enumerated = EnumMatcher::Evaluate(specs[i].pattern, g, capped);
    if (!enumerated.ok()) continue;  // cap tripped
    EXPECT_EQ((*expected)[i].answers, *enumerated) << workload[i].tag;
    ++enum_checked;
  }
  EXPECT_GT(enum_checked, 0u);

  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 4;
  std::vector<std::vector<ServiceResponse>> got(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServiceClient::Connect(server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (const ServiceRequest& request : workload) {
        auto response = client->Call(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        got[c].push_back(std::move(response).value());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), workload.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      const std::string context =
          "client " + std::to_string(c) + " " + workload[i].tag;
      EXPECT_TRUE(got[c][i].ok) << context << ": " << got[c][i].error_message;
      EXPECT_EQ(got[c][i].tag, workload[i].tag) << context;
      EXPECT_EQ(got[c][i].answers, (*expected)[i].answers) << context;
      ExpectSameWork(got[c][i].stats, (*expected)[i].stats, context);
    }
  }
  EXPECT_EQ(engine.stats().queries, kClients * workload.size());
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.connections, kClients);
  EXPECT_EQ(stats.queries_ok, kClients * workload.size());
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  server.Stop();
}

// Responses on one connection come back in request order even when the
// whole workload is pipelined in a single burst.
TEST(ServiceLoopbackTest, PipelinedBurstKeepsRequestOrder) {
  Graph g = MakeGraph(23);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 23);

  QueryEngine engine(&g, EngineOptions{});
  ServiceOptions options;
  options.max_inflight_per_client = 0;  // the burst must not be shed
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (const ServiceRequest& request : workload) {
    ASSERT_TRUE(client->Send(request).ok());
  }
  for (const ServiceRequest& request : workload) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok) << response->error_message;
    EXPECT_EQ(response->tag, request.tag);  // strict request order
  }
  server.Stop();
}

// Malformed lines (bad JSON, unknown fields, bad pattern text, an
// oversized line) get structured InvalidArgument responses and the
// connection keeps working.
TEST(ServiceLoopbackTest, MalformedRequestsGetStructuredErrors) {
  Graph g = MakeGraph(31);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 31);
  QueryEngine engine(&g, EngineOptions{});
  ServiceOptions options;
  options.max_line_bytes = 4096;
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const char* bad_lines[] = {
      "this is not json",
      R"({"op":"query"})",
      R"({"pattern":"p","bogus":1})",
      R"({"pattern":"no focus record","tag":"parse-me"})",
  };
  for (const char* line : bad_lines) {
    ASSERT_TRUE(client->SendLine(line).ok());
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok) << line;
    EXPECT_EQ(response->error_code, "InvalidArgument") << line;
  }
  // An oversized line is answered with an error as soon as the guard
  // trips, without buffering the rest.
  std::string huge = R"({"pattern":")" + std::string(8192, 'x') + R"("})";
  ASSERT_TRUE(client->SendLine(huge).ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "InvalidArgument");

  // The connection survived all of it: a real query still answers.
  auto good = client->Call(workload[0]);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->ok) << good->error_message;

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.malformed, 5u);
  EXPECT_EQ(stats.queries_ok, 1u);
  server.Stop();
}

// While a long batch occupies the engine: (a) the per-client in-flight
// limit rejects pipelined excess with "Unavailable", (b) the stats op
// on a second connection answers immediately instead of queueing behind
// the batch. Both are asserted *during* the busy window — the atomic
// flag proves the batch was still running.
TEST(ServiceLoopbackTest, BusyEngineShedsExcessAndStatsStaysResponsive) {
  Graph g = MakeGraph(47, /*vertices=*/400);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 47);
  std::vector<QuerySpec> specs = AsSpecs(workload, g);
  const std::vector<QuerySpec> busy = BusyBatch(g, specs);

  QueryEngine engine(&g, EngineOptions{});
  ServiceOptions options;
  options.max_inflight_per_client = 1;
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> batch_done{false};
  std::thread batch([&] {
    auto outcomes = engine.RunBatch(busy);
    EXPECT_TRUE(outcomes.ok());
    batch_done.store(true);
  });
  AwaitBatchStarted(engine, batch_done);

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto monitor = ServiceClient::Connect(server.port());
  ASSERT_TRUE(monitor.ok());

  // Pipeline 3 queries on one connection: the first takes the client's
  // only in-flight slot (it sits queued behind the batch), the other
  // two must be rejected immediately.
  for (int i = 0; i < 3; ++i) {
    ServiceRequest request = workload[0];
    request.tag = "burst-" + std::to_string(i);
    ASSERT_TRUE(client->Send(request).ok());
  }

  // The stats op answers while the engine is busy.
  ServiceRequest stats_request;
  stats_request.op = ServiceRequest::Op::kStats;
  auto stats_response = monitor->Call(stats_request);
  ASSERT_TRUE(stats_response.ok()) << stats_response.status().ToString();
  EXPECT_TRUE(stats_response->ok);
  EXPECT_FALSE(batch_done.load())
      << "batch finished before the stats probe - the busy window is too "
         "short for this machine; widen the batch";

  // Responses come back in request order: the admitted query's answer
  // (delivered once the batch drains) first, then the two rejections.
  auto first = client->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->ok) << first->error_message;
  EXPECT_EQ(first->tag, "burst-0");
  for (int i = 1; i < 3; ++i) {
    auto shed = client->ReadResponse();
    ASSERT_TRUE(shed.ok());
    EXPECT_FALSE(shed->ok);
    EXPECT_EQ(shed->tag, "burst-" + std::to_string(i));
    EXPECT_EQ(shed->error_code, "Unavailable") << shed->error_message;
  }
  batch.join();
  EXPECT_EQ(server.stats().rejected, 2u);
  server.Stop();
}

// Patterns over labels the graph has never seen parse fine and match
// nothing — byte-identical semantics to an unlabeled miss, not an error.
TEST(ServiceLoopbackTest, UnknownLabelsMatchNothing) {
  Graph g = MakeGraph(53);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ServiceRequest request;
  request.pattern_text =
      "node a made_up_label\nnode b other_novel_label\n"
      "edge a b unheard_of_edge\nfocus a\n";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok) << response->error_message;
  EXPECT_TRUE(response->answers.empty());
  server.Stop();
}

// The delta op end to end: a wire-delivered batch mutates the served
// graph (answers flip from the pre-delta to the post-delta reference),
// the response carries the bumped version and net counts, and labels
// the delta introduced are immediately usable in pattern text — the
// service re-snapshots its parse dictionary from the engine.
TEST(ServiceLoopbackTest, DeltaOpMutatesServedGraphAndInternsLabels) {
  Graph g = MakeGraph(67);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 67);
  const std::string label0 = g.dict().Name(g.vertex_label(0));
  const VertexId novel_id = g.num_vertices();

  // The batch: one brand-new node label and edge label, plus mutations
  // over existing labels (an edge rewire and a tombstone).
  NamedGraphDelta delta;
  delta.add_vertices = {"novel"};
  delta.add_edges.push_back({0, novel_id, "fresh_edge"});
  delta.add_edges.push_back({1, 2, "el0"});
  delta.remove_vertices.push_back(5);

  // Pre/post reference answers on local copies.
  Graph pre = g;
  Graph post = g;
  std::vector<QuerySpec> specs = AsSpecs(workload, pre);
  ASSERT_TRUE(post.ApplyDelta(ResolveDelta(delta, &post.mutable_dict())).ok());
  QueryEngine ref_pre(&pre, EngineOptions{});
  auto expected_pre = ref_pre.RunBatch(specs);
  ASSERT_TRUE(expected_pre.ok());
  QueryEngine ref_post(&post, EngineOptions{});
  auto expected_post = ref_post.RunBatch(specs);
  ASSERT_TRUE(expected_post.ok());

  // Deltas need an owning engine (a borrowed graph is read-only).
  QueryEngine engine(std::move(g), EngineOptions{});
  const uint64_t v0 = engine.graph_version();
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->Call(workload[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->answers, (*expected_pre)[i].answers)
        << "pre-delta " << workload[i].tag;
  }

  ServiceRequest mutation;
  mutation.op = ServiceRequest::Op::kDelta;
  mutation.delta = delta;
  mutation.tag = "d-1";
  auto applied = client->Call(mutation);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(applied->ok) << applied->error_message;
  EXPECT_EQ(applied->op, "delta");
  EXPECT_EQ(applied->tag, "d-1");
  EXPECT_EQ(applied->graph_version, v0 + 1);
  EXPECT_EQ(applied->body.Find("vertices_added")->as_number(), 1);
  EXPECT_EQ(applied->body.Find("vertices_removed")->as_number(), 1);
  EXPECT_EQ(applied->body.Find("edges_added")->as_number(), 2);

  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->Call(workload[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->answers, (*expected_post)[i].answers)
        << "post-delta " << workload[i].tag;
  }

  // The delta's labels are already parseable: this pattern names a node
  // label and an edge label that did not exist at server start, and its
  // single answer is the rewired source vertex.
  ServiceRequest novel;
  novel.pattern_text = "node a " + label0 +
                       "\nnode b novel\nedge a b fresh_edge\nfocus a\n";
  auto response = client->Call(novel);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->error_message;
  EXPECT_EQ(response->answers, (AnswerSet{0}));

  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.deltas_ok, 1u);
  EXPECT_EQ(stats.deltas_failed, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  server.Stop();
}

// Delta failures are structured responses, not dropped connections: an
// invalid batch (out-of-range endpoint) reports InvalidArgument and
// leaves the graph untouched; a borrowing engine rejects every delta.
TEST(ServiceLoopbackTest, DeltaRejectionsAreStructured) {
  Graph g = MakeGraph(71);
  const size_t n = g.num_vertices();
  {
    QueryEngine engine(Graph(g), EngineOptions{});
    const uint64_t v0 = engine.graph_version();
    QueryService server(&engine, ServiceOptions{});
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::Connect(server.port());
    ASSERT_TRUE(client.ok());

    ServiceRequest bad;
    bad.op = ServiceRequest::Op::kDelta;
    bad.delta.add_edges.push_back({static_cast<VertexId>(n + 100), 0, "el0"});
    bad.tag = "bad-endpoint";
    auto response = client->Call(bad);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->error_code, "InvalidArgument");
    EXPECT_EQ(response->tag, "bad-endpoint");
    EXPECT_EQ(engine.graph_version(), v0);  // untouched

    // The connection still works, and an empty batch is a legal no-op
    // that bumps the version.
    ServiceRequest noop;
    noop.op = ServiceRequest::Op::kDelta;
    auto applied = client->Call(noop);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(applied->ok) << applied->error_message;
    EXPECT_EQ(applied->graph_version, v0 + 1);

    const ServiceStats stats = server.stats();
    EXPECT_EQ(stats.deltas_ok, 1u);
    EXPECT_EQ(stats.deltas_failed, 1u);
    server.Stop();
  }
  {
    QueryEngine engine(&g, EngineOptions{});  // borrowing: read-only graph
    QueryService server(&engine, ServiceOptions{});
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    ServiceRequest mutation;
    mutation.op = ServiceRequest::Op::kDelta;
    mutation.delta.add_vertices = {"novel"};
    auto response = client->Call(mutation);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->error_code, "InvalidArgument");
    EXPECT_EQ(server.stats().deltas_failed, 1u);
    server.Stop();
  }
}

// The shutdown op: rejected when disabled (default), honored when the
// service opts in — Wait() returns and Stop() drains cleanly.
TEST(ServiceLoopbackTest, ShutdownOpIsGatedByOption) {
  Graph g = MakeGraph(59);
  QueryEngine engine(&g, EngineOptions{});
  {
    QueryService server(&engine, ServiceOptions{});
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    ServiceRequest request;
    request.op = ServiceRequest::Op::kShutdown;
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->error_code, "Unimplemented");
    server.Stop();
  }
  {
    ServiceOptions options;
    options.allow_shutdown = true;
    QueryService server(&engine, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    ServiceRequest request;
    request.op = ServiceRequest::Op::kShutdown;
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok);
    EXPECT_EQ(response->op, "shutdown");
    server.Wait();  // signaled by the op; returns without Stop()
    server.Stop();
  }
}

// The delta-stall regression: a delta pipelined while the engine is
// busy must NOT block its connection's reader thread. The delta rides
// the dispatch queue (where ApplyDelta waits for the engine admission
// lock on a worker), so requests pipelined behind it are still read and
// processed — provable via the stats_requests counter advancing while
// the busy batch is mid-flight. With the old inline apply, the reader
// sat inside ApplyDelta and could read nothing until the engine freed
// up. Responses still leave in strict request order afterwards.
TEST(ServiceLoopbackTest, QueuedDeltaKeepsReaderResponsive) {
  Graph g = MakeGraph(83, /*vertices=*/400);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 83);
  std::vector<QuerySpec> specs = AsSpecs(workload, g);
  const std::vector<QuerySpec> busy = BusyBatch(g, specs);

  // Owning engine: deltas are legal. The wire delta is an empty batch —
  // a version-bumping no-op, so the concurrent busy batch's queries are
  // unaffected whenever the apply interleaves.
  QueryEngine engine(std::move(g), EngineOptions{});
  ServiceOptions options;
  options.max_inflight_per_client = 0;
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> batch_done{false};
  std::thread batch([&] {
    auto outcomes = engine.RunBatch(busy);
    EXPECT_TRUE(outcomes.ok());
    batch_done.store(true);
  });
  AwaitBatchStarted(engine, batch_done);

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  // One pipelined burst: the delta, then two stats probes behind it.
  ServiceRequest mutation;
  mutation.op = ServiceRequest::Op::kDelta;
  mutation.tag = "d-queued";
  ASSERT_TRUE(client->Send(mutation).ok());
  ServiceRequest probe;
  probe.op = ServiceRequest::Op::kStats;
  ASSERT_TRUE(client->Send(probe).ok());
  ASSERT_TRUE(client->Send(probe).ok());

  // The reader works through both probes although the delta ahead of
  // them has not been applied-and-answered yet (its response would
  // flush first — the probes' counters move long before any response).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().stats_requests < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().stats_requests, 2u)
      << "reader stalled behind the queued delta";
  EXPECT_FALSE(batch_done.load())
      << "batch finished before the probes were read - the busy window is "
         "too short for this machine; widen the batch";

  // Strict request order on the wire: delta response first, then the
  // two stats responses.
  auto applied = client->ReadResponse();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->ok) << applied->error_message;
  EXPECT_EQ(applied->op, "delta");
  EXPECT_EQ(applied->tag, "d-queued");
  for (int i = 0; i < 2; ++i) {
    auto stats_response = client->ReadResponse();
    ASSERT_TRUE(stats_response.ok());
    EXPECT_TRUE(stats_response->ok);
    EXPECT_EQ(stats_response->op, "stats");
  }
  batch.join();
  EXPECT_EQ(server.stats().deltas_ok, 1u);
  EXPECT_EQ(server.stats().deltas_failed, 0u);
  server.Stop();
}

// algo handling over the wire: "auto" resolves server-side (the
// response reports the engine's concrete choice); an unknown algo name
// — the retired enumeration baselines included — is a structured
// InvalidArgument that leaves the connection usable.
TEST(ServiceLoopbackTest, AutoAlgoResolvesAndBogusAlgoIsStructured) {
  Graph g = MakeGraph(89);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 89);
  QueryEngine engine(&g, EngineOptions{});
  QueryService server(&engine, ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // Unknown algo: rejected at decode with a structured error, not a
  // dropped connection.
  const std::string node_label = g.dict().Name(g.vertex_label(0));
  const char* unknown[] = {"bogus", "enum", "penum"};
  for (const std::string algo : unknown) {
    ASSERT_TRUE(client
                    ->SendLine(R"({"pattern":"node a )" + node_label +
                               R"(\nfocus a\n","algo":")" + algo + R"("})")
                    .ok());
    auto rejected = client->ReadResponse();
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_FALSE(rejected->ok) << algo;
    EXPECT_EQ(rejected->error_code, "InvalidArgument") << algo;
    EXPECT_NE(rejected->error_message.find("unknown algo '" + algo + "'"),
              std::string::npos)
        << rejected->error_message;
  }

  // The connection survived: an auto query on it answers, reporting the
  // resolved matcher (never "auto" back).
  ServiceRequest request = workload[0];
  request.algo = EngineAlgo::kAuto;
  auto first = client->Call(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error_message;
  EXPECT_TRUE(ParseEngineAlgo(first->algo).has_value()) << first->algo;
  EXPECT_NE(first->algo, "auto");

  // A repeat plans alike.
  auto second = client->Call(request);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->ok);
  EXPECT_EQ(second->algo, first->algo);
  EXPECT_EQ(second->answers, first->answers);

  EXPECT_EQ(server.stats().malformed, 3u);
  server.Stop();
}

// Graceful stop answers everything already admitted: a client that
// pipelined the workload and then sees the server stop still receives
// every response before the connection closes.
TEST(ServiceLoopbackTest, StopAnswersAdmittedQueries) {
  Graph g = MakeGraph(61);
  std::vector<ServiceRequest> workload = MakeWorkload(g, 61);
  QueryEngine engine(&g, EngineOptions{});
  ServiceOptions options;
  options.max_inflight_per_client = 0;
  QueryService server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (const ServiceRequest& request : workload) {
    ASSERT_TRUE(client->Send(request).ok());
  }
  // Let the reader admit the burst, then stop concurrently with the
  // dispatch drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] { server.Stop(); });
  size_t answered = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->ReadResponse();
    if (!response.ok()) break;  // server closed after draining
    if (response->ok) ++answered;
  }
  stopper.join();
  // Everything the reader admitted before SHUT_RD was answered; at
  // minimum the admission queue was drained, never abandoned.
  EXPECT_EQ(engine.stats().queries, answered);
}

}  // namespace
}  // namespace qgp::service
