#ifndef QGP_SERVICE_PROTOCOL_H_
#define QGP_SERVICE_PROTOCOL_H_

/// \file
/// Wire protocol of the network query service: newline-delimited JSON.
/// Each request is one JSON object on one line; each response is one
/// JSON object on one line, streamed back in request order per
/// connection. Pattern text travels inside a JSON string (newlines
/// escaped), so the framing never splits a message.
///
/// Requests:
///   {"op":"query","pattern":"node xo person\n...","algo":"qmatch",
///    "options":{"ball_limit":4096},"timeout_ms":250,"tag":"req-17"}
///                                  — "algo" is "qmatch", "pqmatch" or
///                                    "auto" (the engine picks);
///                                    omitted = "qmatch".
///                                    "timeout_ms" (query only; omitted
///                                    or 0 = none) is an end-to-end
///                                    deadline measured from the moment
///                                    the server reads the request:
///                                    queue wait counts, and a request
///                                    that ages out before dispatch is
///                                    shed without touching the engine
///   {"op":"stats"}                 — engine + service telemetry; never
///                                    queues behind running queries
///   {"op":"delta","add_vertices":["person"],"remove_vertices":[3],
///    "add_edges":[{"src":0,"dst":7,"label":"follows"}],
///    "remove_edges":[{"src":2,"dst":3,"label":"likes"}],
///    "own":[7],"tag":"d-1"}
///                                  — batched graph mutation (owning
///                                    engines only); sequences behind
///                                    the running query, bumps the
///                                    graph version. "own" is the shard
///                                    transport extension: extend the
///                                    serving engine's owned-focus set
///                                    with these (post-apply, local)
///                                    vertex ids; see ServiceRequest::own
///   {"op":"shutdown"}              — clean stop (only when the server
///                                    was started with allow_shutdown)
///
/// `op` defaults to "query" when omitted. Unknown top-level keys,
/// unknown option keys and type mismatches are rejected with a
/// structured error — a typo never evaluates silently-wrong.
///
/// Responses:
///   {"ok":true,"op":"query","tag":"req-17","answers":[3,17],
///    "wall_ms":1.9,"cache_hits":4,"cache_misses":0,
///    "result_cache_hit":false,"stats":{"search_extensions":211,...}}
///   {"ok":false,"op":"query","tag":"req-17",
///    "error":{"code":"InvalidArgument","message":"..."}}
///   {"ok":true,"op":"stats","engine":{...},"service":{...}}
///
/// Error codes are StatusCodeName strings; "Unavailable" marks an
/// admission rejection (per-client in-flight limit) or a draining
/// server — back off and retry. "DeadlineExceeded" means the request's
/// timeout_ms expired (in the queue or mid-evaluation); the evaluation
/// unwound cleanly and admitted nothing into any cache, so retrying
/// with a larger budget is safe. "Cancelled" means the server cancelled
/// the evaluation itself (graceful drain at shutdown).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/match_types.h"
#include "engine/query_engine.h"
#include "graph/graph_delta.h"
#include "service/json.h"

namespace qgp::service {

/// One decoded client request.
struct ServiceRequest {
  enum class Op { kQuery, kStats, kDelta, kShutdown };
  Op op = Op::kQuery;
  /// PatternParser DSL text (kQuery only).
  std::string pattern_text;
  /// Matcher selection: any EngineAlgoName, including "auto" (the
  /// engine picks). Omitted on the wire = unset here = qmatch.
  std::optional<EngineAlgo> algo;
  /// Every knob but max_isomorphisms travels: no served matcher reads
  /// it, so the codec neither decodes nor encodes it.
  MatchOptions options;
  /// End-to-end deadline in milliseconds, 0 = none (kQuery only). The
  /// server arms a CancelToken from the moment it reads the request;
  /// see the wire-spec comment above for the semantics.
  int64_t timeout_ms = 0;
  /// Mutation batch in string labels (kDelta only); resolved against
  /// the engine's dict at apply time.
  NamedGraphDelta delta;
  /// Shard transport extension (kDelta only, optional): LOCAL vertex
  /// ids, valid against the post-apply graph, that the coordinator
  /// newly assigns to this shard's owned-focus set. Ignored by engines
  /// without an engaged EngineOptions::focus_subset (the server rejects
  /// it with InvalidArgument in that case, keeping the plain service
  /// strict).
  std::vector<VertexId> own;
  /// Echoed back verbatim in the response.
  std::string tag;
};

/// Service-level counters exposed by the stats endpoint (the engine's
/// EngineStats ride alongside them in the same response).
struct ServiceStats {
  uint64_t connections = 0;     ///< accepted client connections
  uint64_t requests = 0;        ///< request lines received
  uint64_t queries_ok = 0;      ///< queries answered successfully
  uint64_t queries_failed = 0;  ///< queries that returned an error
  uint64_t rejected = 0;        ///< admission rejections (client limit)
  uint64_t malformed = 0;       ///< undecodable request lines
  uint64_t stats_requests = 0;  ///< stats endpoint hits
  uint64_t deltas_ok = 0;       ///< graph deltas applied successfully
  uint64_t deltas_failed = 0;   ///< graph deltas the engine rejected
  /// Requests answered at dispatch without touching the engine because
  /// their deadline had already passed while queued (DeadlineExceeded)
  /// or the server began draining (Cancelled). Disjoint from
  /// queries_failed, which counts evaluations the engine started.
  uint64_t shed = 0;
  /// The counter list (common/field_list.h).
  static constexpr auto Fields() {
    using S = ServiceStats;
    using F = Field<S>;
    return std::array{
        F{"connections", &S::connections},
        F{"requests", &S::requests},
        F{"queries_ok", &S::queries_ok},
        F{"queries_failed", &S::queries_failed},
        F{"rejected", &S::rejected},
        F{"malformed", &S::malformed},
        F{"stats_requests", &S::stats_requests},
        F{"deltas_ok", &S::deltas_ok},
        F{"deltas_failed", &S::deltas_failed},
        F{"shed", &S::shed},
    };
  }
};

static_assert(sizeof(ServiceStats) == FieldBytes(ServiceStats::Fields()),
              "every ServiceStats member needs an entry in Fields()");

/// One decoded server response (client side). Query-payload fields are
/// meaningful when ok && op == "query"; error fields when !ok; `body`
/// always holds the full document (the stats op's engine/service
/// objects are read through it).
struct ServiceResponse {
  bool ok = false;
  std::string op;
  std::string tag;
  AnswerSet answers;
  MatchStats stats;
  double wall_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  bool result_cache_hit = false;
  bool delta_repaired = false;
  /// The matcher that produced the answer (EngineAlgoName string) — the
  /// engine's choice when the request ran with algo "auto".
  std::string algo;
  /// Graph version after a delta op (ok && op == "delta"); the rest of
  /// the DeltaOutcome (net counts, invalidation tallies) is in `body`.
  uint64_t graph_version = 0;
  std::string error_code;
  std::string error_message;
  JsonValue body;
};

/// Parses one request line. Fails with InvalidArgument on anything
/// malformed: bad JSON, unknown op/algo/option keys, wrong value types,
/// a query without a pattern.
Result<ServiceRequest> DecodeRequest(std::string_view line);

/// Renders a request as one line (no trailing newline). Inverse of
/// DecodeRequest; the codec round-trip tests assert both directions.
std::string EncodeRequest(const ServiceRequest& request);

/// Response encoders, each returning one line (no trailing newline).
std::string EncodeQueryResponse(const QueryOutcome& outcome);
std::string EncodeDeltaResponse(const DeltaOutcome& outcome,
                                std::string_view tag);
std::string EncodeErrorResponse(ServiceRequest::Op op, const Status& error,
                                std::string_view tag);
std::string EncodeStatsResponse(const EngineStats& engine,
                                const ServiceStats& service);
std::string EncodeShutdownResponse();

/// Parses one response line (client side).
Result<ServiceResponse> DecodeResponse(std::string_view line);

/// Reads the required count `field` of a response body, such as a delta
/// response's "edges_added": an integer in [0, 2^53], never truncated.
Result<uint64_t> ReadCount(const JsonValue& body, const std::string& field);

/// A stats struct (MatchStats, EngineStats, ServiceStats) <-> JSON
/// object, one key per entry of its Fields() list. Decoding is strict:
/// every listed key must be present and typed (a counter: an integer in
/// [0, 2^53]); unlisted keys, such as "cache_hit_ratio", are ignored.
template <typename S>
JsonValue StatsToJson(const S& stats);
template <typename S>
Result<S> StatsFromJson(const JsonValue& value);

}  // namespace qgp::service

#endif  // QGP_SERVICE_PROTOCOL_H_
