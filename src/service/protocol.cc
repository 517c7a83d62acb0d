#include "service/protocol.h"

#include <cmath>
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

/// A JSON number is accepted as an unsigned counter only when it is a
/// non-negative integer (no silent truncation of "3.7" or "-1").
Result<uint64_t> AsUint(const JsonValue& v, const std::string& field) {
  if (!v.is_number() || v.as_number() < 0 ||
      v.as_number() != std::floor(v.as_number())) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(v.as_number());
}

Result<bool> AsBool(const JsonValue& v, const std::string& field) {
  if (!v.is_bool()) {
    return Status::InvalidArgument("field '" + field + "' must be a boolean");
  }
  return v.as_bool();
}

Result<MatchOptions> DecodeOptions(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("'options' must be an object");
  }
  MatchOptions o;
  for (const auto& [key, v] : value.as_object()) {
    if (key == "use_simulation") {
      QGP_ASSIGN_OR_RETURN(o.use_simulation, AsBool(v, key));
    } else if (key == "use_quantifier_pruning") {
      QGP_ASSIGN_OR_RETURN(o.use_quantifier_pruning, AsBool(v, key));
    } else if (key == "use_potential_ordering") {
      QGP_ASSIGN_OR_RETURN(o.use_potential_ordering, AsBool(v, key));
    } else if (key == "early_stop_counting") {
      QGP_ASSIGN_OR_RETURN(o.early_stop_counting, AsBool(v, key));
    } else if (key == "use_incremental_negation") {
      QGP_ASSIGN_OR_RETURN(o.use_incremental_negation, AsBool(v, key));
    } else if (key == "max_quantified_per_path") {
      QGP_ASSIGN_OR_RETURN(uint64_t n, AsUint(v, key));
      o.max_quantified_per_path = static_cast<int>(n);
    } else if (key == "ball_limit") {
      QGP_ASSIGN_OR_RETURN(uint64_t n, AsUint(v, key));
      o.ball_limit = static_cast<size_t>(n);
    } else if (key == "scheduler_grain") {
      QGP_ASSIGN_OR_RETURN(uint64_t n, AsUint(v, key));
      o.scheduler_grain = static_cast<size_t>(n);
    } else {
      return Status::InvalidArgument("unknown option '" + key + "'");
    }
  }
  return o;
}

JsonValue EncodeOptions(const MatchOptions& o) {
  JsonValue::Object out;
  MatchOptions defaults;
  // Only non-default knobs travel — requests stay short and a decoded
  // request compares equal to the original field by field.
  if (o.use_simulation != defaults.use_simulation) {
    out["use_simulation"] = o.use_simulation;
  }
  if (o.use_quantifier_pruning != defaults.use_quantifier_pruning) {
    out["use_quantifier_pruning"] = o.use_quantifier_pruning;
  }
  if (o.use_potential_ordering != defaults.use_potential_ordering) {
    out["use_potential_ordering"] = o.use_potential_ordering;
  }
  if (o.early_stop_counting != defaults.early_stop_counting) {
    out["early_stop_counting"] = o.early_stop_counting;
  }
  if (o.use_incremental_negation != defaults.use_incremental_negation) {
    out["use_incremental_negation"] = o.use_incremental_negation;
  }
  if (o.max_quantified_per_path != defaults.max_quantified_per_path) {
    out["max_quantified_per_path"] = int64_t{o.max_quantified_per_path};
  }
  if (o.ball_limit != defaults.ball_limit) {
    out["ball_limit"] = uint64_t{o.ball_limit};
  }
  if (o.scheduler_grain != defaults.scheduler_grain) {
    out["scheduler_grain"] = uint64_t{o.scheduler_grain};
  }
  return JsonValue(std::move(out));
}

Result<uint64_t> ReadUint(const JsonValue& object, const std::string& field) {
  const JsonValue* v = object.Find(field);
  if (v == nullptr) {
    return Status::InvalidArgument("missing field '" + field + "'");
  }
  return AsUint(*v, field);
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
    QGP_ASSIGN_OR_RETURN(uint64_t id, AsUint(item, field + "[]"));
    out.push_back(static_cast<VertexId>(id));
  }
  return out;
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
        QGP_ASSIGN_OR_RETURN(uint64_t id, AsUint(value, field + ".src"));
        edge.src = static_cast<VertexId>(id);
        have_src = true;
      } else if (key == "dst") {
        QGP_ASSIGN_OR_RETURN(uint64_t id, AsUint(value, field + ".dst"));
        edge.dst = static_cast<VertexId>(id);
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
    } else if (key == "share_cache") {
      QGP_ASSIGN_OR_RETURN(request.share_cache, AsBool(v, key));
    } else if (key == "timeout_ms") {
      QGP_ASSIGN_OR_RETURN(uint64_t ms, AsUint(v, key));
      request.timeout_ms = static_cast<int64_t>(ms);
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
    if (!request.share_cache) out["share_cache"] = false;
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
      JsonValue::Array ids;
      ids.reserve(request.delta.remove_vertices.size());
      for (VertexId v : request.delta.remove_vertices) {
        ids.emplace_back(uint64_t{v});
      }
      out["remove_vertices"] = std::move(ids);
    }
    if (!request.delta.add_edges.empty()) {
      out["add_edges"] = EncodeEdgeArray(request.delta.add_edges);
    }
    if (!request.delta.remove_edges.empty()) {
      out["remove_edges"] = EncodeEdgeArray(request.delta.remove_edges);
    }
    if (!request.own.empty()) {
      JsonValue::Array ids;
      ids.reserve(request.own.size());
      for (VertexId v : request.own) {
        ids.emplace_back(uint64_t{v});
      }
      out["own"] = std::move(ids);
    }
  }
  return JsonValue(std::move(out)).Dump();
}

JsonValue MatchStatsToJson(const MatchStats& s) {
  JsonValue::Object out;
  out["isomorphisms_enumerated"] = s.isomorphisms_enumerated;
  out["witness_searches"] = s.witness_searches;
  out["search_extensions"] = s.search_extensions;
  out["candidates_initial"] = s.candidates_initial;
  out["candidates_pruned"] = s.candidates_pruned;
  out["focus_candidates_checked"] = s.focus_candidates_checked;
  out["inc_candidates_checked"] = s.inc_candidates_checked;
  out["balls_built"] = s.balls_built;
  out["scheduler_tasks"] = s.scheduler_tasks;
  out["scheduler_steals"] = s.scheduler_steals;
  return JsonValue(std::move(out));
}

Result<MatchStats> MatchStatsFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("'stats' must be an object");
  }
  MatchStats s;
  QGP_ASSIGN_OR_RETURN(s.isomorphisms_enumerated,
                       ReadUint(value, "isomorphisms_enumerated"));
  QGP_ASSIGN_OR_RETURN(s.witness_searches, ReadUint(value, "witness_searches"));
  QGP_ASSIGN_OR_RETURN(s.search_extensions,
                       ReadUint(value, "search_extensions"));
  QGP_ASSIGN_OR_RETURN(s.candidates_initial,
                       ReadUint(value, "candidates_initial"));
  QGP_ASSIGN_OR_RETURN(s.candidates_pruned,
                       ReadUint(value, "candidates_pruned"));
  QGP_ASSIGN_OR_RETURN(s.focus_candidates_checked,
                       ReadUint(value, "focus_candidates_checked"));
  QGP_ASSIGN_OR_RETURN(s.inc_candidates_checked,
                       ReadUint(value, "inc_candidates_checked"));
  QGP_ASSIGN_OR_RETURN(s.balls_built, ReadUint(value, "balls_built"));
  QGP_ASSIGN_OR_RETURN(s.scheduler_tasks, ReadUint(value, "scheduler_tasks"));
  QGP_ASSIGN_OR_RETURN(s.scheduler_steals,
                       ReadUint(value, "scheduler_steals"));
  return s;
}

JsonValue EngineStatsToJson(const EngineStats& s) {
  JsonValue::Object out;
  out["queries"] = s.queries;
  out["failed"] = s.failed;
  out["timeouts"] = s.timeouts;
  out["cancellations"] = s.cancellations;
  out["wall_ms"] = s.wall_ms;
  out["cache_hits"] = s.cache_hits;
  out["cache_misses"] = s.cache_misses;
  out["cache_evicted"] = s.cache_evicted;
  out["cache_hit_ratio"] = s.HitRatio();
  out["result_hits"] = s.result_hits;
  out["result_misses"] = s.result_misses;
  out["deltas"] = s.deltas;
  out["delta_wall_ms"] = s.delta_wall_ms;
  out["results_invalidated"] = s.results_invalidated;
  out["repair_hits"] = s.repair_hits;
  out["repair_fallbacks"] = s.repair_fallbacks;
  out["match"] = MatchStatsToJson(s.match);
  return JsonValue(std::move(out));
}

std::string EncodeQueryResponse(const QueryOutcome& outcome) {
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "query";
  out["tag"] = outcome.tag;
  JsonValue::Array answers;
  answers.reserve(outcome.answers.size());
  for (VertexId v : outcome.answers) answers.emplace_back(uint64_t{v});
  out["answers"] = std::move(answers);
  out["wall_ms"] = outcome.wall_ms;
  out["cache_hits"] = outcome.cache_hits;
  out["cache_misses"] = outcome.cache_misses;
  out["result_cache_hit"] = outcome.result_cache_hit;
  out["delta_repaired"] = outcome.delta_repaired;
  out["algo"] = EngineAlgoName(outcome.algo);
  out["stats"] = MatchStatsToJson(outcome.stats);
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
  JsonValue::Object svc;
  svc["connections"] = service.connections;
  svc["requests"] = service.requests;
  svc["queries_ok"] = service.queries_ok;
  svc["queries_failed"] = service.queries_failed;
  svc["rejected"] = service.rejected;
  svc["malformed"] = service.malformed;
  svc["stats_requests"] = service.stats_requests;
  svc["deltas_ok"] = service.deltas_ok;
  svc["deltas_failed"] = service.deltas_failed;
  svc["shed"] = service.shed;
  JsonValue::Object out;
  out["ok"] = true;
  out["op"] = "stats";
  out["tag"] = "";
  out["engine"] = EngineStatsToJson(engine);
  out["service"] = std::move(svc);
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
    if (answers == nullptr || !answers->is_array()) {
      return Status::InvalidArgument("query response needs 'answers'");
    }
    response.answers.reserve(answers->as_array().size());
    for (const JsonValue& v : answers->as_array()) {
      QGP_ASSIGN_OR_RETURN(uint64_t id, AsUint(v, "answers[]"));
      response.answers.push_back(static_cast<VertexId>(id));
    }
    const JsonValue* stats = doc.Find("stats");
    if (stats == nullptr) {
      return Status::InvalidArgument("query response needs 'stats'");
    }
    QGP_ASSIGN_OR_RETURN(response.stats, MatchStatsFromJson(*stats));
    if (const JsonValue* wall = doc.Find("wall_ms");
        wall != nullptr && wall->is_number()) {
      response.wall_ms = wall->as_number();
    }
    QGP_ASSIGN_OR_RETURN(response.cache_hits, ReadUint(doc, "cache_hits"));
    QGP_ASSIGN_OR_RETURN(response.cache_misses, ReadUint(doc, "cache_misses"));
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
    QGP_ASSIGN_OR_RETURN(response.graph_version,
                         ReadUint(doc, "graph_version"));
  }
  response.body = std::move(doc);
  return response;
}

}  // namespace qgp::service
