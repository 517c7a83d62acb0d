#include "service/protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

namespace qgp::service {

namespace {

const char* OpName(ServiceRequest::Op op) {
  switch (op) {
    case ServiceRequest::Op::kQuery:
      return "query";
    case ServiceRequest::Op::kStats:
      return "stats";
    case ServiceRequest::Op::kDelta:
      return "delta";
    case ServiceRequest::Op::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

/// Converts one JSON value to a field of type T: a bool, a number of
/// milliseconds (double), a nested MatchStats, or an integer. An integer
/// must be whole, non-negative, within T's range and at most 2^53, past
/// which doubles skip integers; nothing is truncated, so "3.7", "-1" and
/// 2^32 as a vertex id are all rejected.
template <typename T>
Result<T> As(const JsonValue& v, const std::string& field) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) {
      return Status::InvalidArgument("field '" + field + "' must be a boolean");
    }
    return v.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) {
      return Status::InvalidArgument("field '" + field + "' must be a number");
    }
    return v.as_number();
  } else if constexpr (std::is_same_v<T, MatchStats>) {
    return StatsFromJson<MatchStats>(v);
  } else {
    constexpr double kMax = std::min(
        9007199254740992.0, static_cast<double>(std::numeric_limits<T>::max()));
    if (!v.is_number() || !(v.as_number() >= 0) || v.as_number() > kMax ||
        v.as_number() != std::floor(v.as_number())) {
      return Status::InvalidArgument(
          "field '" + field + "' must be an integer in [0, " +
          std::to_string(static_cast<uint64_t>(kMax)) + "]");
    }
    return static_cast<T>(v.as_number());
  }
}

/// Reads a required field of `object` (see As).
template <typename T = uint64_t>
Result<T> Read(const JsonValue& object, const std::string& field) {
  const JsonValue* v = object.Find(field);
  if (v == nullptr) {
    return Status::InvalidArgument("missing field '" + field + "'");
  }
  return As<T>(*v, field);
}

/// The MatchOptions knobs that travel. max_isomorphisms does not: no
/// served matcher reads it.
constexpr auto WireOptions() {
  using O = MatchOptions;
  return std::tuple{
      Field<O, bool>{"use_simulation", &O::use_simulation},
      Field<O, bool>{"use_quantifier_pruning", &O::use_quantifier_pruning},
      Field<O, bool>{"use_potential_ordering", &O::use_potential_ordering},
      Field<O, bool>{"early_stop_counting", &O::early_stop_counting},
      Field<O, bool>{"use_incremental_negation", &O::use_incremental_negation},
      Field<O, int>{"max_quantified_per_path", &O::max_quantified_per_path},
      Field<O, size_t>{"ball_limit", &O::ball_limit},
      Field<O, size_t>{"scheduler_grain", &O::scheduler_grain},
  };
}

Result<MatchOptions> DecodeOptions(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("'options' must be an object");
  }
  MatchOptions o;
  for (const auto& [key, v] : value.as_object()) {
    Status status = Status::InvalidArgument("unknown option '" + key + "'");
    ForEachField(WireOptions(), [&](const auto& field) {
      if (key != field.name) return;
      auto decoded = As<typename std::decay_t<decltype(field)>::Type>(v, key);
      status = decoded.status();
      if (decoded.ok()) o.*field.member = *decoded;
    });
    QGP_RETURN_IF_ERROR(status);
  }
  return o;
}

JsonValue EncodeOptions(const MatchOptions& o) {
  // Only non-default knobs travel — requests stay short and a decoded
  // request compares equal to the original field by field.
  const MatchOptions defaults;
  JsonValue::Object out;
  ForEachField(WireOptions(), [&](const auto& field) {
    if (o.*field.member != defaults.*field.member) {
      out[field.name] = o.*field.member;
    }
  });
  return JsonValue(std::move(out));
}

Result<std::vector<std::string>> DecodeLabelArray(const JsonValue& v,
                                                  const std::string& field) {
  if (!v.is_array()) {
    return Status::InvalidArgument("'" + field + "' must be an array");
  }
  std::vector<std::string> out;
  out.reserve(v.as_array().size());
  for (const JsonValue& item : v.as_array()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("'" + field +
                                     "' entries must be label strings");
    }
    out.push_back(item.as_string());
  }
  return out;
}

Result<std::vector<VertexId>> DecodeVertexArray(const JsonValue& v,
                                                const std::string& field) {
  if (!v.is_array()) {
    return Status::InvalidArgument("'" + field + "' must be an array");
  }
  std::vector<VertexId> out;
  out.reserve(v.as_array().size());
  for (const JsonValue& item : v.as_array()) {
    QGP_ASSIGN_OR_RETURN(VertexId id, As<VertexId>(item, field + "[]"));
    out.push_back(id);
  }
  return out;
}

JsonValue EncodeVertexArray(const std::vector<VertexId>& ids) {
  JsonValue::Array out;
  out.reserve(ids.size());
  for (VertexId v : ids) out.emplace_back(uint64_t{v});
  return JsonValue(std::move(out));
}

/// One wire edge is {"src":u,"dst":v,"label":"..."} — all three keys
/// required, nothing else allowed.
Result<std::vector<NamedGraphDelta::NamedEdge>> DecodeEdgeArray(
    const JsonValue& v, const std::string& field) {
  if (!v.is_array()) {
    return Status::InvalidArgument("'" + field + "' must be an array");
  }
  std::vector<NamedGraphDelta::NamedEdge> out;
  out.reserve(v.as_array().size());
  for (const JsonValue& item : v.as_array()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("'" + field +
                                     "' entries must be edge objects");
    }
    NamedGraphDelta::NamedEdge edge;
    bool have_src = false, have_dst = false, have_label = false;
    for (const auto& [key, value] : item.as_object()) {
      if (key == "src") {
        QGP_ASSIGN_OR_RETURN(edge.src, As<VertexId>(value, field + ".src"));
        have_src = true;
      } else if (key == "dst") {
        QGP_ASSIGN_OR_RETURN(edge.dst, As<VertexId>(value, field + ".dst"));
        have_dst = true;
      } else if (key == "label") {
        if (!value.is_string()) {
          return Status::InvalidArgument("'" + field +
                                         ".label' must be a string");
        }
        edge.label = value.as_string();
        have_label = true;
      } else {
        return Status::InvalidArgument("unknown edge field '" + key +
                                       "' in '" + field + "'");
      }
    }
    if (!have_src || !have_dst || !have_label) {
      return Status::InvalidArgument("'" + field +
                                     "' entries need src, dst and label");
    }
    out.push_back(std::move(edge));
  }
  return out;
}

JsonValue EncodeEdgeArray(const std::vector<NamedGraphDelta::NamedEdge>& edges) {
  JsonValue::Array out;
  out.reserve(edges.size());
  for (const NamedGraphDelta::NamedEdge& edge : edges) {
    JsonValue::Object e;
    e["src"] = uint64_t{edge.src};
    e["dst"] = uint64_t{edge.dst};
    e["label"] = edge.label;
    out.emplace_back(std::move(e));
  }
  return JsonValue(std::move(out));
}

}  // namespace

Result<ServiceRequest> DecodeRequest(std::string_view line) {
  QGP_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ServiceRequest request;
  bool have_pattern = false;
  bool have_delta = false;
  for (const auto& [key, v] : doc.as_object()) {
    if (key == "op") {
      if (!v.is_string()) {
        return Status::InvalidArgument("'op' must be a string");
      }
      const std::string& op = v.as_string();
      if (op == "query") {
        request.op = ServiceRequest::Op::kQuery;
      } else if (op == "stats") {
        request.op = ServiceRequest::Op::kStats;
      } else if (op == "delta") {
        request.op = ServiceRequest::Op::kDelta;
      } else if (op == "shutdown") {
        request.op = ServiceRequest::Op::kShutdown;
      } else {
        return Status::InvalidArgument("unknown op '" + op + "'");
      }
    } else if (key == "pattern") {
      if (!v.is_string()) {
        return Status::InvalidArgument("'pattern' must be a string");
      }
      request.pattern_text = v.as_string();
      have_pattern = true;
    } else if (key == "algo") {
      if (!v.is_string()) {
        return Status::InvalidArgument("'algo' must be a string");
      }
      std::optional<EngineAlgo> algo = ParseEngineAlgo(v.as_string());
      if (!algo.has_value()) {
        return Status::InvalidArgument("unknown algo '" + v.as_string() + "'");
      }
      request.algo = algo;
    } else if (key == "options") {
      QGP_ASSIGN_OR_RETURN(request.options, DecodeOptions(v));
    } else if (key == "timeout_ms") {
      QGP_ASSIGN_OR_RETURN(request.timeout_ms, As<int64_t>(v, key));
    } else if (key == "add_vertices") {
      QGP_ASSIGN_OR_RETURN(request.delta.add_vertices,
                           DecodeLabelArray(v, key));
      have_delta = true;
    } else if (key == "remove_vertices") {
      QGP_ASSIGN_OR_RETURN(request.delta.remove_vertices,
                           DecodeVertexArray(v, key));
      have_delta = true;
    } else if (key == "add_edges") {
      QGP_ASSIGN_OR_RETURN(request.delta.add_edges, DecodeEdgeArray(v, key));
      have_delta = true;
    } else if (key == "remove_edges") {
      QGP_ASSIGN_OR_RETURN(request.delta.remove_edges,
                           DecodeEdgeArray(v, key));
      have_delta = true;
    } else if (key == "own") {
      QGP_ASSIGN_OR_RETURN(request.own, DecodeVertexArray(v, key));
      have_delta = true;
    } else if (key == "tag") {
      if (!v.is_string()) {
        return Status::InvalidArgument("'tag' must be a string");
      }
      request.tag = v.as_string();
    } else {
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }
  if (request.op == ServiceRequest::Op::kQuery) {
    if (!have_pattern || request.pattern_text.empty()) {
      return Status::InvalidArgument("query request needs a 'pattern'");
    }
  } else if (have_pattern) {
    return Status::InvalidArgument(
        std::string("'pattern' is only valid for op \"query\", not \"") +
        OpName(request.op) + "\"");
  }
  if (request.timeout_ms > 0 && request.op != ServiceRequest::Op::kQuery) {
    return Status::InvalidArgument(
        std::string("'timeout_ms' is only valid for op \"query\", not \"") +
        OpName(request.op) + "\"");
  }
  // An empty delta op is legal (a no-op batch still bumps the graph
  // version), but delta fields on any other op are a client bug.
  if (have_delta && request.op != ServiceRequest::Op::kDelta) {
    return Status::InvalidArgument(
        std::string("delta fields are only valid for op \"delta\", not \"") +
        OpName(request.op) + "\"");
  }
  return request;
}

std::string EncodeRequest(const ServiceRequest& request) {
  JsonValue::Object out;
  out["op"] = OpName(request.op);
  if (!request.tag.empty()) out["tag"] = request.tag;
  if (request.op == ServiceRequest::Op::kQuery) {
    out["pattern"] = request.pattern_text;
    if (request.algo.has_value()) out["algo"] = EngineAlgoName(*request.algo);
    if (request.timeout_ms > 0) {
      out["timeout_ms"] = static_cast<uint64_t>(request.timeout_ms);
    }
    JsonValue options = EncodeOptions(request.options);
    if (!options.as_object().empty()) out["options"] = std::move(options);
  } else if (request.op == ServiceRequest::Op::kDelta) {
    // Only non-empty stages travel; DecodeRequest defaults the rest to
    // empty, so the round trip stays field-exact.
    if (!request.delta.add_vertices.empty()) {
      JsonValue::Array labels;
      labels.reserve(request.delta.add_vertices.size());
      for (const std::string& l : request.delta.add_vertices) {
        labels.emplace_back(l);
      }
      out["add_vertices"] = std::move(labels);
    }
    if (!request.delta.remove_vertices.empty()) {
      out["remove_vertices"] = EncodeVertexArray(request.delta.remove_vertices);
    }
    if (!request.delta.add_edges.empty()) {
      out["add_edges"] = EncodeEdgeArray(request.delta.add_edges);
    }
    if (!request.delta.remove_edges.empty()) {
      out["remove_edges"] = EncodeEdgeArray(request.delta.remove_edges);
    }
    if (!request.own.empty()) out["own"] = EncodeVertexArray(request.own);
  }
  return JsonValue(std::move(out)).Dump();
}

template <typename S>
JsonValue StatsToJson(const S& stats) {
  JsonValue::Object out;
  ForEachField(S::Fields(), [&](const auto& field) {
    using T = typename std::decay_t<decltype(field)>::Type;
    if constexpr (std::is_same_v<T, MatchStats>) {
      out[field.name] = StatsToJson(stats.*field.member);
    } else {
      out[field.name] = stats.*field.member;
    }
  });
  return JsonValue(std::move(out));
}

template <typename S>
Result<S> StatsFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("stats must be an object");
  }
  S stats;
  Status status;
  ForEachField(S::Fields(), [&](const auto& field) {
    if (!status.ok()) return;
    auto decoded = Read<typename std::decay_t<decltype(field)>::Type>(
        value, field.name);
    status = decoded.status();
    if (decoded.ok()) stats.*field.member = *decoded;
  });
  if (!status.ok()) return status;
  return stats;
}

template JsonValue StatsToJson(const MatchStats&);
template JsonValue StatsToJson(const EngineStats&);
template JsonValue StatsToJson(const ServiceStats&);
template Result<MatchStats> StatsFromJson(const JsonValue&);
template Result<EngineStats> StatsFromJson(const JsonValue&);
template Result<ServiceStats> StatsFromJson(const JsonValue&);

std::string EncodeQueryResponse(const QueryOutcome& outcome) {
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "query";
  out["tag"] = outcome.tag;
  out["answers"] = EncodeVertexArray(outcome.answers);
  out["wall_ms"] = outcome.wall_ms;
  out["cache_hits"] = outcome.cache_hits;
  out["cache_misses"] = outcome.cache_misses;
  out["result_cache_hit"] = outcome.result_cache_hit;
  out["delta_repaired"] = outcome.delta_repaired;
  out["algo"] = EngineAlgoName(outcome.algo);
  out["stats"] = StatsToJson(outcome.stats);
  return JsonValue(std::move(out)).Dump();
}

std::string EncodeDeltaResponse(const DeltaOutcome& outcome,
                                std::string_view tag) {
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "delta";
  out["tag"] = std::string(tag);
  out["graph_version"] = outcome.graph_version;
  out["vertices_added"] = uint64_t{outcome.vertices_added};
  out["vertices_removed"] = uint64_t{outcome.vertices_removed};
  out["edges_added"] = uint64_t{outcome.edges_added};
  out["edges_removed"] = uint64_t{outcome.edges_removed};
  out["candidate_sets_evicted"] = uint64_t{outcome.candidate_sets_evicted};
  out["results_invalidated"] = uint64_t{outcome.results_invalidated};
  out["partition_invalidated"] = outcome.partition_invalidated;
  out["wall_ms"] = outcome.wall_ms;
  return JsonValue(std::move(out)).Dump();
}

std::string EncodeErrorResponse(ServiceRequest::Op op, const Status& error,
                                std::string_view tag) {
  JsonValue::Object detail;
  detail["code"] = std::string(StatusCodeName(error.code()));
  detail["message"] = error.message();
  JsonValue::Object out;
  out["ok"] = false;
  out["op"] = OpName(op);
  out["tag"] = std::string(tag);
  out["error"] = std::move(detail);
  return JsonValue(std::move(out)).Dump();
}

std::string EncodeStatsResponse(const EngineStats& engine,
                                const ServiceStats& service) {
  JsonValue engine_json = StatsToJson(engine);
  engine_json.as_object()["cache_hit_ratio"] = engine.HitRatio();
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "stats";
  out["tag"] = "";
  out["engine"] = std::move(engine_json);
  out["service"] = StatsToJson(service);
  return JsonValue(std::move(out)).Dump();
}

std::string EncodeShutdownResponse() {
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "shutdown";
  out["tag"] = "";
  return JsonValue(std::move(out)).Dump();
}

Result<ServiceResponse> DecodeResponse(std::string_view line) {
  QGP_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  ServiceResponse response;
  const JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::InvalidArgument("response needs a boolean 'ok'");
  }
  response.ok = ok->as_bool();
  if (const JsonValue* op = doc.Find("op"); op != nullptr && op->is_string()) {
    response.op = op->as_string();
  }
  if (const JsonValue* tag = doc.Find("tag");
      tag != nullptr && tag->is_string()) {
    response.tag = tag->as_string();
  }
  if (!response.ok) {
    const JsonValue* error = doc.Find("error");
    if (error == nullptr || !error->is_object()) {
      return Status::InvalidArgument("error response needs an 'error' object");
    }
    if (const JsonValue* code = error->Find("code");
        code != nullptr && code->is_string()) {
      response.error_code = code->as_string();
    }
    if (const JsonValue* message = error->Find("message");
        message != nullptr && message->is_string()) {
      response.error_message = message->as_string();
    }
  } else if (response.op == "query") {
    const JsonValue* answers = doc.Find("answers");
    if (answers == nullptr) {
      return Status::InvalidArgument("query response needs 'answers'");
    }
    QGP_ASSIGN_OR_RETURN(response.answers,
                         DecodeVertexArray(*answers, "answers"));
    QGP_ASSIGN_OR_RETURN(response.stats, Read<MatchStats>(doc, "stats"));
    if (const JsonValue* wall = doc.Find("wall_ms");
        wall != nullptr && wall->is_number()) {
      response.wall_ms = wall->as_number();
    }
    QGP_ASSIGN_OR_RETURN(response.cache_hits, Read(doc, "cache_hits"));
    QGP_ASSIGN_OR_RETURN(response.cache_misses, Read(doc, "cache_misses"));
    if (const JsonValue* hit = doc.Find("result_cache_hit");
        hit != nullptr && hit->is_bool()) {
      response.result_cache_hit = hit->as_bool();
    }
    if (const JsonValue* repaired = doc.Find("delta_repaired");
        repaired != nullptr && repaired->is_bool()) {
      response.delta_repaired = repaired->as_bool();
    }
    if (const JsonValue* algo = doc.Find("algo");
        algo != nullptr && algo->is_string()) {
      response.algo = algo->as_string();
    }
  } else if (response.op == "delta") {
    QGP_ASSIGN_OR_RETURN(response.graph_version, Read(doc, "graph_version"));
  }
  response.body = std::move(doc);
  return response;
}

Result<uint64_t> ReadCount(const JsonValue& body, const std::string& field) {
  return Read(body, field);
}

}  // namespace qgp::service
