// Wire-codec suite for the network query service: JSON value
// round-trips, request/response encode<->decode identity, and the
// strict-decode contract (unknown keys, wrong types and missing
// required fields are rejected with structured errors, never evaluated
// silently-wrong).
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "service/json.h"
#include "service/protocol.h"

namespace qgp::service {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonTest, DumpParsesBackIdentically) {
  JsonValue::Object obj;
  obj["b"] = true;
  obj["n"] = nullptr;
  obj["i"] = uint64_t{12345678901234};
  obj["d"] = 1.5;
  obj["s"] = "line1\nline2\t\"quoted\" \\slash";
  obj["a"] = JsonValue::Array{1, "two", false};
  JsonValue::Object nested;
  nested["k"] = "v";
  obj["o"] = std::move(nested);
  const JsonValue original{std::move(obj)};

  const std::string dumped = original.Dump();
  // Newline-delimited framing depends on this: no raw newline survives.
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  auto parsed = ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, original);
  EXPECT_EQ(parsed->Dump(), dumped);  // deterministic encoding
}

TEST(JsonTest, IntegralNumbersHaveNoDecimalPoint) {
  EXPECT_EQ(JsonValue(uint64_t{42}).Dump(), "42");
  EXPECT_EQ(JsonValue(1.5).Dump(), "1.5");
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  auto v = ParseJson(R"("a\u0041\n\u00e9\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->as_string(), "aA\n\u00e9\U0001f600");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\":}", "1 2",
        "{\"a\":1,}", "[1]extra", "nulll", "\"bad\\q\"", "\"\\ud83d\"",
        "-", "01"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ------------------------------------------------------------- requests

// Every line decodes to an InvalidArgument, never to a request.
void ExpectRejected(const std::vector<const char*>& lines) {
  for (const char* line : lines) {
    auto decoded = DecodeRequest(line);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << line;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
}

TEST(ProtocolTest, RequestRoundTripsThroughCodec) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kQuery;
  request.pattern_text = "node a person\nnode b person\nedge a b e\nfocus a\n";
  request.algo = EngineAlgo::kPQMatch;
  request.options.ball_limit = 123456;
  request.options.use_simulation = true;
  // How a client asks for the QMatchn baseline.
  request.options.use_incremental_negation = false;
  request.tag = "req-17";

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, ServiceRequest::Op::kQuery);
  EXPECT_EQ(decoded->pattern_text, request.pattern_text);
  EXPECT_EQ(decoded->algo, EngineAlgo::kPQMatch);
  EXPECT_EQ(decoded->options.ball_limit, 123456u);
  EXPECT_TRUE(decoded->options.use_simulation);
  EXPECT_FALSE(decoded->options.use_incremental_negation);
  EXPECT_EQ(decoded->tag, "req-17");
  // Encoding is deterministic: a second trip produces the same line.
  EXPECT_EQ(EncodeRequest(*decoded), EncodeRequest(request));
}

TEST(ProtocolTest, StatsAndShutdownRequestsRoundTrip) {
  for (ServiceRequest::Op op :
       {ServiceRequest::Op::kStats, ServiceRequest::Op::kShutdown}) {
    ServiceRequest request;
    request.op = op;
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(ProtocolTest, OpDefaultsToQuery) {
  auto decoded = DecodeRequest(R"({"pattern":"node a x\nfocus a\n"})");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, ServiceRequest::Op::kQuery);
}

TEST(ProtocolTest, AlgoFieldRoundTripsAutoAndDefaultsToUnset) {
  // "auto" is a first-class wire name: the engine resolves it
  // server-side, so it must survive the request codec like any other.
  ServiceRequest request;
  request.pattern_text = "node a x\nfocus a\n";
  request.algo = EngineAlgo::kAuto;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->algo, EngineAlgo::kAuto);
  EXPECT_EQ(EncodeRequest(*decoded), EncodeRequest(request));

  // An omitted algo decodes to UNSET (run as qmatch), never to some
  // concrete matcher — and an unset algo is not emitted on the wire.
  auto bare = DecodeRequest(R"({"pattern":"node a x\nfocus a\n"})");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_FALSE(bare->algo.has_value());
  EXPECT_EQ(EncodeRequest(*bare).find("algo"), std::string::npos);

  auto spelled = DecodeRequest(R"({"pattern":"p","algo":"auto"})");
  ASSERT_TRUE(spelled.ok()) << spelled.status().ToString();
  EXPECT_EQ(spelled->algo, EngineAlgo::kAuto);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  ExpectRejected({
      "not json at all",
      "[1,2,3]",                                    // not an object
      R"({"op":"query"})",                          // query without pattern
      R"({"op":"query","pattern":""})",             // empty pattern
      R"({"op":"stats","pattern":"node a x\n"})",   // pattern on non-query
      R"({"op":"mystery"})",                        // unknown op
      R"({"pattern":"p","algo":"quantum"})",        // unknown algo
      R"({"pattern":"p","algo":"qmatchn"})",        // an option, not an algo
      R"({"pattern":"p","bogus":1})",               // unknown top-level key
      R"({"pattern":"p","options":{"bogus":1}})",   // unknown option
      R"({"pattern":"p","options":{"ball_limit":-1}})",   // negative
      R"({"pattern":"p","options":{"ball_limit":3.7}})",  // fractional
      // Only the enumeration baselines read it; it is not a wire option.
      R"({"pattern":"p","options":{"max_isomorphisms":5}})",
      R"({"pattern":"p","options":{"use_simulation":1}})",     // wrong type
      R"({"pattern":12})",                          // wrong type
      R"({"op":5})",                                // wrong type
      R"({"tag":5,"pattern":"p"})",                 // wrong type
  });
}

// The enumeration baselines are not served: their names decode like any
// other unknown algo, to an InvalidArgument that names the algo.
TEST(ProtocolTest, RetiredEnumerationAlgosAreUnknown) {
  for (const std::string algo : {"enum", "penum"}) {
    auto decoded =
        DecodeRequest(R"({"pattern":"p","algo":")" + algo + R"("})");
    ASSERT_FALSE(decoded.ok()) << algo;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("unknown algo '" + algo + "'"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

// max_isomorphisms does not travel: an encoded request leaves it out.
TEST(ProtocolTest, MaxIsomorphismsIsNotEncoded) {
  ServiceRequest request;
  request.pattern_text = "node a x\nfocus a\n";
  request.options.max_isomorphisms = 1000;
  EXPECT_EQ(EncodeRequest(request).find("max_isomorphisms"),
            std::string::npos);
}

// The engine has one cache and no bypass: a request still carrying the
// retired "share_cache" field is rejected like any unknown field.
TEST(ProtocolTest, ShareCacheIsAnUnknownRequestField) {
  auto decoded = DecodeRequest(R"({"pattern":"p","share_cache":false})");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unknown request field"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ProtocolTest, DeltaRequestRoundTripsThroughCodec) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kDelta;
  request.delta.add_vertices = {"person", "org"};
  request.delta.remove_vertices = {3, 4242};
  request.delta.add_edges = {{0, 7, "follows"}, {7, 0, "follows"}};
  request.delta.remove_edges = {{2, 3, "likes"}};
  request.tag = "d-1";

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, ServiceRequest::Op::kDelta);
  EXPECT_EQ(decoded->delta.add_vertices, request.delta.add_vertices);
  EXPECT_EQ(decoded->delta.remove_vertices, request.delta.remove_vertices);
  ASSERT_EQ(decoded->delta.add_edges.size(), 2u);
  EXPECT_EQ(decoded->delta.add_edges[0].src, 0u);
  EXPECT_EQ(decoded->delta.add_edges[0].dst, 7u);
  EXPECT_EQ(decoded->delta.add_edges[0].label, "follows");
  ASSERT_EQ(decoded->delta.remove_edges.size(), 1u);
  EXPECT_EQ(decoded->delta.remove_edges[0].label, "likes");
  EXPECT_EQ(decoded->tag, "d-1");
  EXPECT_EQ(EncodeRequest(*decoded), EncodeRequest(request));

  // An empty batch is a legal request (a no-op delta still bumps the
  // graph version server-side).
  auto empty = DecodeRequest(R"({"op":"delta"})");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->op, ServiceRequest::Op::kDelta);
  EXPECT_TRUE(empty->delta.Empty());
}

TEST(ProtocolTest, RejectsMalformedDeltaRequests) {
  ExpectRejected({
      // delta fields on a non-delta op
      R"({"op":"query","pattern":"p","add_vertices":["x"]})",
      R"({"op":"stats","remove_vertices":[1]})",
      // pattern on a delta op
      R"({"op":"delta","pattern":"node a x\n"})",
      // wrong container / element types
      R"({"op":"delta","add_vertices":"person"})",
      R"({"op":"delta","add_vertices":[1]})",
      R"({"op":"delta","remove_vertices":[-1]})",
      R"({"op":"delta","remove_vertices":[1.5]})",
      R"({"op":"delta","add_edges":[[0,1,"e"]]})",      // array, not object
      R"({"op":"delta","add_edges":[{"src":0,"dst":1}]})",        // no label
      R"({"op":"delta","add_edges":[{"src":0,"label":"e"}]})",    // no dst
      R"({"op":"delta","remove_edges":[{"src":0,"dst":1,"label":5}]})",
      R"({"op":"delta","remove_edges":[{"src":-2,"dst":1,"label":"e"}]})",
      R"({"op":"delta","add_edges":[{"src":0,"dst":1,"label":"e","w":1}]})",
  });
}

// A number past its target's range (a vertex id past uint32, an int
// knob past int, anything past 2^53, where doubles stop being exact) is
// rejected, never truncated into a different, valid-looking value.
TEST(ProtocolTest, RejectsOutOfRangeIntegers) {
  ExpectRejected({
      R"({"op":"delta","remove_vertices":[4294967296]})",
      R"({"op":"delta","add_edges":[{"src":4294967297,"dst":1,"label":"e"}]})",
      R"({"op":"delta","remove_edges":[{"src":0,"dst":1e10,"label":"e"}]})",
      R"({"op":"delta","own":[4294967296]})",
      R"({"pattern":"p","options":{"max_quantified_per_path":4294967298}})",
      R"({"pattern":"p","options":{"max_quantified_per_path":2147483648}})",
      R"({"pattern":"p","options":{"ball_limit":1e20}})",
      R"({"pattern":"p","options":{"scheduler_grain":18446744073709551616}})",
      R"({"pattern":"p","timeout_ms":1e30})",
      R"({"pattern":"p","timeout_ms":9007199254740994})",
  });
  // Each target's largest value still decodes exactly.
  auto edge = DecodeRequest(
      R"({"op":"delta","add_edges":[{"src":4294967295,"dst":0,"label":"e"}]})");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->delta.add_edges[0].src, VertexId{4294967295u});
  auto knobs = DecodeRequest(
      R"({"pattern":"p","timeout_ms":9007199254740992,)"
      R"("options":{"max_quantified_per_path":2147483647}})");
  ASSERT_TRUE(knobs.ok()) << knobs.status().ToString();
  EXPECT_EQ(knobs->timeout_ms, int64_t{9007199254740992});
  EXPECT_EQ(knobs->options.max_quantified_per_path, 2147483647);

  QueryOutcome outcome;
  outcome.answers = {7};
  std::string line = EncodeQueryResponse(outcome);
  ASSERT_TRUE(DecodeResponse(line).ok()) << line;
  line.replace(line.find("[7]"), 3, "[4294967296]");
  EXPECT_FALSE(DecodeResponse(line).ok()) << "accepted: " << line;
  EXPECT_FALSE(
      DecodeResponse(R"({"ok":true,"op":"delta","graph_version":1e300})").ok());
}

// ------------------------------------------------------------ responses

TEST(ProtocolTest, QueryResponseRoundTrips) {
  QueryOutcome outcome;
  outcome.tag = "q7";
  outcome.answers = {3, 17, 4242};
  outcome.wall_ms = 1.875;
  outcome.cache_hits = 4;
  outcome.cache_misses = 1;
  outcome.result_cache_hit = true;
  outcome.algo = EngineAlgo::kPQMatch;

  auto decoded = DecodeResponse(EncodeQueryResponse(outcome));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->op, "query");
  EXPECT_EQ(decoded->tag, "q7");
  EXPECT_EQ(decoded->answers, outcome.answers);
  EXPECT_DOUBLE_EQ(decoded->wall_ms, 1.875);
  EXPECT_EQ(decoded->cache_hits, 4u);
  EXPECT_EQ(decoded->cache_misses, 1u);
  EXPECT_TRUE(decoded->result_cache_hit);
  // The effective matcher rides along so clients see what algo = auto
  // resolved to. MatchStatsJsonIsFieldComplete covers `stats`.
  EXPECT_EQ(decoded->algo, "pqmatch");
}

TEST(ProtocolTest, DeltaResponseRoundTrips) {
  DeltaOutcome outcome;
  outcome.graph_version = 5;
  outcome.vertices_added = 2;
  outcome.vertices_removed = 1;
  outcome.edges_added = 3;
  outcome.edges_removed = 4;
  outcome.candidate_sets_evicted = 6;
  outcome.results_invalidated = 7;
  outcome.partition_invalidated = true;
  outcome.wall_ms = 0.25;

  auto decoded = DecodeResponse(EncodeDeltaResponse(outcome, "d-9"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->op, "delta");
  EXPECT_EQ(decoded->tag, "d-9");
  EXPECT_EQ(decoded->graph_version, 5u);
  // The net counts and invalidation tallies ride in the body.
  EXPECT_EQ(decoded->body.Find("vertices_added")->as_number(), 2);
  EXPECT_EQ(decoded->body.Find("vertices_removed")->as_number(), 1);
  EXPECT_EQ(decoded->body.Find("edges_added")->as_number(), 3);
  EXPECT_EQ(decoded->body.Find("edges_removed")->as_number(), 4);
  EXPECT_EQ(decoded->body.Find("candidate_sets_evicted")->as_number(), 6);
  EXPECT_EQ(decoded->body.Find("results_invalidated")->as_number(), 7);
  EXPECT_TRUE(decoded->body.Find("partition_invalidated")->as_bool());

  // A delta response without its version is rejected, not defaulted.
  EXPECT_FALSE(DecodeResponse(R"({"ok":true,"op":"delta","tag":""})").ok());
}

TEST(ProtocolTest, DeltaCountsReadStrictly) {
  DeltaOutcome outcome;
  outcome.graph_version = 5;
  outcome.vertices_added = 2;
  auto response = DecodeResponse(EncodeDeltaResponse(outcome, "d-9"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto added = ReadCount(response->body, "vertices_added");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 2u);

  // A count that is negative, fractional, too large or absent is
  // rejected, never wrapped or truncated.
  for (const char* bad : {"-1", "2.5", "1e30"}) {
    std::string line = EncodeDeltaResponse(outcome, "");
    const std::string field = "\"edges_added\":0";
    ASSERT_NE(line.find(field), std::string::npos) << line;
    line.replace(line.find(field), field.size(),
                 std::string("\"edges_added\":") + bad);
    auto parsed = DecodeResponse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_FALSE(ReadCount(parsed->body, "edges_added").ok()) << line;
  }
  EXPECT_FALSE(ReadCount(response->body, "no_such_count").ok());
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  const std::string line = EncodeErrorResponse(
      ServiceRequest::Op::kQuery,
      Status::Unavailable("per-client in-flight limit reached"), "req-3");
  auto decoded = DecodeResponse(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->op, "query");
  EXPECT_EQ(decoded->tag, "req-3");
  EXPECT_EQ(decoded->error_code, "Unavailable");
  EXPECT_EQ(decoded->error_message, "per-client in-flight limit reached");
}

// Fills every listed field of S with a distinct value (the nested
// MatchStats continues the count).
template <typename S>
S DistinctStats(uint64_t* next) {
  S stats;
  ForEachField(S::Fields(), [&](const auto& field) {
    using T = typename std::decay_t<decltype(field)>::Type;
    if constexpr (std::is_same_v<T, MatchStats>) {
      stats.*field.member = DistinctStats<MatchStats>(next);
    } else {
      stats.*field.member = static_cast<T>((*next)++);
    }
  });
  return stats;
}

// `json` decodes to `want`, and loses that with any listed key missing
// or holding a string.
template <typename S>
void ExpectDecodesStrictly(const JsonValue& json, const S& want) {
  auto back = StatsFromJson<S>(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(StatsToJson(*back), StatsToJson(want));
  ForEachField(S::Fields(), [&](const auto& field) {
    JsonValue broken = json;
    broken.as_object()[field.name] = "1";
    EXPECT_FALSE(StatsFromJson<S>(broken).ok()) << field.name;
    broken.as_object().erase(field.name);
    EXPECT_FALSE(StatsFromJson<S>(broken).ok()) << field.name;
  });
}

// Every MatchStats counter survives a query response, each with a
// distinct value, so a value decoded into the wrong member re-encodes
// under the wrong key.
TEST(ProtocolTest, MatchStatsJsonIsFieldComplete) {
  uint64_t next = 1;
  QueryOutcome outcome;
  outcome.stats = DistinctStats<MatchStats>(&next);
  auto query = DecodeResponse(EncodeQueryResponse(outcome));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(StatsToJson(query->stats), StatsToJson(outcome.stats));
  ExpectDecodesStrictly(*query->body.Find("stats"), outcome.stats);
}

// The same for every EngineStats and ServiceStats field (the delta
// telemetry included) in a stats response.
TEST(ProtocolTest, StatsResponseCarriesEngineAndServiceTelemetry) {
  uint64_t next = 1;
  const EngineStats engine = DistinctStats<EngineStats>(&next);
  const ServiceStats service = DistinctStats<ServiceStats>(&next);
  auto stats = DecodeResponse(EncodeStatsResponse(engine, service));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->op, "stats");
  ExpectDecodesStrictly(*stats->body.Find("engine"), engine);
  ExpectDecodesStrictly(*stats->body.Find("service"), service);
}

TEST(ProtocolTest, StatsResponseCarriesDeltaTelemetry) {
  EngineStats engine;
  engine.deltas = 4;
  engine.delta_wall_ms = 1.5;
  engine.results_invalidated = 9;
  engine.repair_hits = 5;
  engine.repair_fallbacks = 2;
  ServiceStats service;
  service.deltas_ok = 4;
  service.deltas_failed = 1;

  auto decoded = DecodeResponse(EncodeStatsResponse(engine, service));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const JsonValue* e = decoded->body.Find("engine");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->Find("deltas")->as_number(), 4);
  EXPECT_DOUBLE_EQ(e->Find("delta_wall_ms")->as_number(), 1.5);
  EXPECT_EQ(e->Find("results_invalidated")->as_number(), 9);
  EXPECT_EQ(e->Find("repair_hits")->as_number(), 5);
  EXPECT_EQ(e->Find("repair_fallbacks")->as_number(), 2);
  const JsonValue* s = decoded->body.Find("service");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->Find("deltas_ok")->as_number(), 4);
  EXPECT_EQ(s->Find("deltas_failed")->as_number(), 1);
}

TEST(ProtocolTest, ResponsesAreSingleLines) {
  QueryOutcome outcome;
  outcome.tag = "multi\nline\ntag";
  EXPECT_EQ(EncodeQueryResponse(outcome).find('\n'), std::string::npos);
  EXPECT_EQ(EncodeErrorResponse(ServiceRequest::Op::kQuery,
                                Status::Internal("a\nb"), "t\nt")
                .find('\n'),
            std::string::npos);
}

}  // namespace
}  // namespace qgp::service
