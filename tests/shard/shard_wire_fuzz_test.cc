// Serialization fuzz/property suite for the shard wire boundary. The
// sharded coordinator reuses the service codec verbatim (patterns as
// DSL text, MatchOptions/answers/MatchStats/deltas as JSON lines), so
// the properties asserted here are exactly what shard transport relies
// on:
//
//  1. Round-trip identity for every wire type, checked re-encode
//     against re-encode (EncodeX(DecodeX(EncodeX(v))) == EncodeX(v)) —
//     a full-fidelity comparison no hand-written field list can rot
//     away from — over randomized values.
//  2. Every malformed or truncated frame decodes to a structured
//     InvalidArgument: never a crash, never a half-decoded request.
//  3. Over a live loopback service, a malformed frame gets a
//     structured error line and the SAME connection keeps answering —
//     a garbage line from one shard client cannot wedge the transport.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/query_service.h"

namespace qgp::service {
namespace {

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 40;
  gc.num_edges = 110;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

// ---- property: randomized request round-trips ------------------------

ServiceRequest RandomQueryRequest(std::mt19937* rng) {
  ServiceRequest r;
  r.op = ServiceRequest::Op::kQuery;
  r.pattern_text = "node a nl" + std::to_string((*rng)() % 4) +
                   "\nnode b nl" + std::to_string((*rng)() % 4) +
                   "\nedge a b el0 >=" + std::to_string(1 + (*rng)() % 5) +
                   "\nfocus a\n";
  switch ((*rng)() % 5) {
    // Two draws for qmatch: its QMatchn mode is the
    // use_incremental_negation draw below.
    case 0:
    case 1: r.algo = EngineAlgo::kQMatch; break;
    case 2: r.algo = EngineAlgo::kPQMatch; break;
    case 3: r.algo = EngineAlgo::kAuto; break;
    default: break;  // unset: qmatch
  }
  r.options.use_simulation = (*rng)() % 2 == 0;
  r.options.use_quantifier_pruning = (*rng)() % 2 == 0;
  r.options.use_potential_ordering = (*rng)() % 2 == 0;
  r.options.early_stop_counting = (*rng)() % 2 == 0;
  r.options.use_incremental_negation = (*rng)() % 2 == 0;
  r.options.max_quantified_per_path = 1 + (*rng)() % 4;
  r.options.ball_limit = (*rng)() % 10000;
  r.options.scheduler_grain = (*rng)() % 64;
  r.timeout_ms = (*rng)() % 100000;
  r.tag = "t" + std::to_string((*rng)() % 1000);
  return r;
}

ServiceRequest RandomDeltaRequest(std::mt19937* rng, bool with_own) {
  ServiceRequest r;
  r.op = ServiceRequest::Op::kDelta;
  const size_t ops = 1 + (*rng)() % 6;
  for (size_t i = 0; i < ops; ++i) {
    switch ((*rng)() % 4) {
      case 0:
        r.delta.add_vertices.push_back("nl" + std::to_string((*rng)() % 4));
        break;
      case 1:
        r.delta.remove_vertices.push_back((*rng)() % 64);
        break;
      case 2:
        r.delta.add_edges.push_back({static_cast<VertexId>((*rng)() % 64),
                                     static_cast<VertexId>((*rng)() % 64),
                                     "el" + std::to_string((*rng)() % 3)});
        break;
      default:
        r.delta.remove_edges.push_back({static_cast<VertexId>((*rng)() % 64),
                                        static_cast<VertexId>((*rng)() % 64),
                                        "el" + std::to_string((*rng)() % 3)});
        break;
    }
  }
  if (with_own) {
    const size_t n = 1 + (*rng)() % 5;
    for (size_t i = 0; i < n; ++i) r.own.push_back((*rng)() % 128);
  }
  r.tag = "d" + std::to_string((*rng)() % 1000);
  return r;
}

TEST(ShardWireFuzz, QueryRequestsRoundTripExactly) {
  std::mt19937 rng(11);
  for (int i = 0; i < 200; ++i) {
    ServiceRequest r = RandomQueryRequest(&rng);
    const std::string line = EncodeRequest(r);
    auto decoded = DecodeRequest(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << line;
    EXPECT_EQ(EncodeRequest(*decoded), line);
  }
}

TEST(ShardWireFuzz, DeltaRequestsWithOwnRoundTripExactly) {
  std::mt19937 rng(12);
  for (int i = 0; i < 200; ++i) {
    ServiceRequest r = RandomDeltaRequest(&rng, /*with_own=*/i % 2 == 0);
    const std::string line = EncodeRequest(r);
    auto decoded = DecodeRequest(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << line;
    EXPECT_EQ(decoded->own, r.own);
    EXPECT_EQ(EncodeRequest(*decoded), line);
  }
}

// ---- property: pattern DSL round-trip (the scatter payload) ----------

// The coordinator serializes once against the master dict; each shard
// re-parses against its own. The invariant that makes that sound:
// Serialize∘Parse is the identity on serialized text, whatever dict the
// parse interns into.
TEST(ShardWireFuzz, PatternTextRoundTripsThroughForeignDict) {
  Graph g = MakeGraph(31);
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 2;
  pc.num_negated = 1;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 24, pc, 5);
  ASSERT_FALSE(suite.empty());
  for (const Pattern& p : suite) {
    const std::string text = PatternParser::Serialize(p, g.dict());
    LabelDict foreign;  // a shard's dict: different ids, same names
    foreign.Intern("unrelated-padding");
    auto reparsed = PatternParser::Parse(text, foreign);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
    EXPECT_EQ(PatternParser::Serialize(*reparsed, foreign), text);
  }
}

// ---- property: responses and MatchStats ------------------------------

MatchStats RandomStats(std::mt19937* rng) {
  // Round-trip fidelity is asserted by re-encoding, so values just need
  // to be distinctive.
  MatchStats s;
  for (const auto& field : MatchStats::Fields()) s.*field.member = (*rng)();
  return s;
}

TEST(ShardWireFuzz, MatchStatsJsonRoundTripsExactly) {
  // Random stats ride QueryResponsesRoundTripExactly; here, the
  // engine-produced ones (scheduler telemetry populated).
  Graph g = MakeGraph(17);
  QueryEngine engine(&g);
  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 3;
  for (Pattern& p : GeneratePatternSuite(g, 6, pc, 9)) {
    QuerySpec spec;
    spec.pattern = std::move(p);
    auto out = engine.Submit(spec);
    if (!out.ok()) continue;
    auto back = StatsFromJson<MatchStats>(StatsToJson(out->stats));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(StatsToJson(*back).Dump(), StatsToJson(out->stats).Dump());
  }
}

TEST(ShardWireFuzz, QueryResponsesRoundTripExactly) {
  std::mt19937 rng(14);
  for (int i = 0; i < 100; ++i) {
    QueryOutcome outcome;
    const size_t n = rng() % 16;
    for (size_t k = 0; k < n; ++k) outcome.answers.push_back(rng() % 500);
    Canonicalize(outcome.answers);
    outcome.stats = RandomStats(&rng);
    outcome.wall_ms = (rng() % 100000) / 16.0;  // dyadic: exact in JSON
    outcome.algo = static_cast<EngineAlgo>(rng() % 5);
    outcome.cache_hits = rng() % 100;
    outcome.cache_misses = rng() % 100;
    outcome.result_cache_hit = rng() % 2 == 0;
    outcome.delta_repaired = rng() % 2 == 0;
    outcome.tag = "q" + std::to_string(rng() % 100);
    const std::string line = EncodeQueryResponse(outcome);
    auto decoded = DecodeResponse(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << line;
    ASSERT_TRUE(decoded->ok);
    EXPECT_EQ(decoded->answers, outcome.answers);
    EXPECT_EQ(decoded->tag, outcome.tag);
    EXPECT_EQ(decoded->algo, EngineAlgoName(outcome.algo));
    EXPECT_EQ(StatsToJson(decoded->stats).Dump(),
              StatsToJson(outcome.stats).Dump());
  }
}

TEST(ShardWireFuzz, DeltaAndErrorResponsesRoundTrip) {
  std::mt19937 rng(15);
  for (int i = 0; i < 50; ++i) {
    DeltaOutcome d;
    d.graph_version = rng() % 1000;
    d.vertices_added = rng() % 50;
    d.vertices_removed = rng() % 50;
    d.edges_added = rng() % 50;
    d.edges_removed = rng() % 50;
    d.candidate_sets_evicted = rng() % 50;
    d.results_invalidated = rng() % 50;
    d.partition_invalidated = rng() % 2 == 0;
    auto decoded = DecodeResponse(EncodeDeltaResponse(d, "dl"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded->ok);
    EXPECT_EQ(decoded->op, "delta");
    EXPECT_EQ(decoded->graph_version, d.graph_version);
    EXPECT_EQ(decoded->tag, "dl");
  }
  // Error responses: the leg StatusFromWire rides on. Every code the
  // shard boundary can produce must survive the trip by name.
  const Status errors[] = {
      Status::InvalidArgument("boom"), Status::NotFound("boom"),
      Status::AlreadyExists("boom"),   Status::OutOfRange("boom"),
      Status::Unimplemented("boom"),   Status::Internal("boom"),
      Status::IoError("boom"),         Status::Corruption("boom"),
      Status::Unavailable("boom"),     Status::DeadlineExceeded("boom"),
      Status::Cancelled("boom")};
  for (const Status& err : errors) {
    auto decoded = DecodeResponse(
        EncodeErrorResponse(ServiceRequest::Op::kQuery, err, "e1"));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->ok);
    EXPECT_EQ(decoded->error_code, StatusCodeName(err.code()));
    EXPECT_EQ(decoded->error_message, "boom");
  }
}

// ---- malformed and truncated frames ----------------------------------

TEST(ShardWireFuzz, MalformedFramesAreStructuredErrors) {
  const char* bad[] = {
      "",                                              // empty frame
      "\x01\x02\x7f",                                  // binary junk
      "{",                                             // truncated object
      "{}",                                            // no op, no pattern
      "[]",                                            // wrong root type
      "null",                                          // wrong root type
      "\"query\"",                                     // wrong root type
      R"({"op":"query"})",                             // missing pattern
      R"({"op":"delta","pattern":"p"})",               // pattern on delta
      R"({"op":"query","pattern":"p","own":[1]})",     // own on non-delta
      R"({"op":"stats","own":[1]})",                   // own on non-delta
      R"({"op":"delta","add_edges":[[1,2]]})",         // arity-2 edge
      R"({"op":"delta","add_edges":[[1,2,"el0",9]]})", // arity-4 edge
      R"({"op":"delta","own":"7"})",                   // own wrong type
      R"({"op":"delta","own":[-1]})",                  // negative id
      R"({"op":"delta","own":[1.5]})",                 // fractional id
      R"({"op":"delta","own":[[1]]})",                 // nested array id
      R"({"op":"delta","remove_vertices":[1],"own":[1],"extra":0})",
      R"({"pattern":"p","timeout_ms":"soon"})",        // wrong type
      R"({"pattern":"p","timeout_ms":-5})",            // negative deadline
      R"({"pattern":"p","options":[]})",               // options not object
      R"({"pattern":"p","options":{"cancel":true}})",  // unknown option
      R"({"pattern":"p"} trailing)",                   // trailing junk
  };
  size_t cases = 0;
  for (const char* line : bad) {
    auto decoded = DecodeRequest(line);
    ASSERT_FALSE(decoded.ok()) << "accepted: " << line;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
    ++cases;
  }
  EXPECT_GE(cases, 20u);
}

// Every proper prefix of a valid frame is a truncated frame, and every
// one must decode to InvalidArgument (the codec never guesses at a cut
// line). This sweeps hundreds of truncation points per seed.
TEST(ShardWireFuzz, TruncatedFramesAreRejectedAtEveryCut) {
  std::mt19937 rng(16);
  for (int i = 0; i < 8; ++i) {
    ServiceRequest r =
        i % 2 == 0 ? RandomQueryRequest(&rng) : RandomDeltaRequest(&rng, true);
    const std::string line = EncodeRequest(r);
    ASSERT_TRUE(DecodeRequest(line).ok());
    for (size_t cut = 0; cut < line.size(); ++cut) {
      auto decoded = DecodeRequest(std::string_view(line).substr(0, cut));
      ASSERT_FALSE(decoded.ok())
          << "accepted a " << cut << "-byte prefix of: " << line;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ---- live loopback: garbage never wedges the connection --------------

TEST(ShardWireFuzz, MalformedLinesDoNotWedgeLiveConnection) {
  Graph g = MakeGraph(23);
  QueryEngine engine(&g);
  ServiceOptions sopts;
  sopts.port = 0;
  QueryService server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 2;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 4, pc, 3);
  ASSERT_FALSE(suite.empty());
  ServiceRequest good;
  good.pattern_text = PatternParser::Serialize(suite[0], g.dict());
  good.tag = "ok";

  const char* garbage[] = {
      "not json",
      "{\"op\":\"query\"}",
      "{\"op\":\"query\",\"pattern\":\"p\",\"own\":[1]}",
      "{\"op\":\"delta\",\"own\":[-1]}",
      "{\"pattern\":",
  };
  for (const char* line : garbage) {
    ASSERT_TRUE(client->SendLine(line).ok());
    auto resp = client->ReadResponse();
    ASSERT_TRUE(resp.ok()) << "connection dropped after: " << line;
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->error_code, "InvalidArgument") << line;

    // The very same connection answers the next well-formed request.
    auto answered = client->Call(good);
    ASSERT_TRUE(answered.ok()) << answered.status().ToString();
    EXPECT_TRUE(answered->ok) << answered->error_message;
    EXPECT_EQ(answered->tag, "ok");
  }
  // "own" on a delta against an engine with no focus subset is rejected
  // as a structured error too (the plain service stays strict).
  ServiceRequest own_delta;
  own_delta.op = ServiceRequest::Op::kDelta;
  own_delta.delta.add_vertices.push_back("nl0");
  own_delta.own.push_back(0);
  auto rejected = client->Call(own_delta);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->error_code, "InvalidArgument");
  auto still_alive = client->Call(good);
  ASSERT_TRUE(still_alive.ok());
  EXPECT_TRUE(still_alive->ok);

  client->Close();
  server.Stop();
}

}  // namespace
}  // namespace qgp::service
