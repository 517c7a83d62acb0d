#include "shard/shard.h"

#include <utility>

#include "core/pattern_parser.h"
#include "service/protocol.h"

namespace qgp::shard {

std::unique_ptr<QueryEngine> MakeShardEngine(Graph fragment_graph,
                                             std::vector<VertexId> owned_local,
                                             int d, EngineOptions base) {
  base.focus_subset = std::move(owned_local);
  base.partition_d = d;
  return std::make_unique<QueryEngine>(std::move(fragment_graph), base);
}

Result<QueryOutcome> InProcessShard::Submit(const ShardQuery& query) {
  // Re-parse against THIS shard's dict: after routed deltas the
  // per-shard dicts can intern labels in different orders, so the
  // coordinator's parsed Pattern (label ids against the master dict)
  // must never be handed over directly. A label this shard has never
  // seen interns a fresh id here that matches no vertex — correct.
  LabelDict dict = engine_->DictSnapshot();
  QGP_ASSIGN_OR_RETURN(Pattern pattern,
                       PatternParser::Parse(query.pattern_text, dict));
  QuerySpec spec;
  spec.pattern = std::move(pattern);
  spec.algo = query.algo;
  spec.options = query.options;
  spec.tag = query.tag;
  // No spec.timeout_ms: the coordinator's per-shard CancelToken (in
  // query.options.cancel) already carries the deadline.
  return engine_->Submit(spec);
}

Status InProcessShard::ApplyDelta(const NamedGraphDelta& delta,
                                  const std::vector<VertexId>& own_local) {
  Result<DeltaOutcome> outcome = engine_->ApplyDelta(delta, own_local);
  if (!outcome.ok()) return outcome.status();
  return Status::Ok();
}

Result<QueryOutcome> RemoteShard::Submit(const ShardQuery& query) {
  service::ServiceRequest request;
  request.op = service::ServiceRequest::Op::kQuery;
  request.pattern_text = query.pattern_text;
  request.algo = query.algo;
  request.options = query.options;
  request.options.cancel = nullptr;  // pointers do not serialize
  request.timeout_ms = query.timeout_ms;
  request.tag = query.tag;
  QGP_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       client_.Call(request));
  if (!response.ok) {
    return StatusFromWire(response.error_code, response.error_message);
  }
  QueryOutcome outcome;
  outcome.answers = std::move(response.answers);
  outcome.stats = response.stats;
  outcome.wall_ms = response.wall_ms;
  outcome.cache_hits = response.cache_hits;
  outcome.cache_misses = response.cache_misses;
  outcome.result_cache_hit = response.result_cache_hit;
  outcome.delta_repaired = response.delta_repaired;
  if (std::optional<EngineAlgo> algo = ParseEngineAlgo(response.algo);
      algo.has_value()) {
    outcome.algo = *algo;
  }
  outcome.tag = response.tag;
  return outcome;
}

Status RemoteShard::ApplyDelta(const NamedGraphDelta& delta,
                               const std::vector<VertexId>& own_local) {
  service::ServiceRequest request;
  request.op = service::ServiceRequest::Op::kDelta;
  request.delta = delta;
  request.own = own_local;
  QGP_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       client_.Call(request));
  if (!response.ok) {
    return StatusFromWire(response.error_code, response.error_message);
  }
  return Status::Ok();
}

Status StatusFromWire(const std::string& code_name,
                      const std::string& message) {
  if (code_name == "InvalidArgument") return Status::InvalidArgument(message);
  if (code_name == "NotFound") return Status::NotFound(message);
  if (code_name == "AlreadyExists") return Status::AlreadyExists(message);
  if (code_name == "OutOfRange") return Status::OutOfRange(message);
  if (code_name == "Unimplemented") return Status::Unimplemented(message);
  if (code_name == "Internal") return Status::Internal(message);
  if (code_name == "IoError") return Status::IoError(message);
  if (code_name == "Corruption") return Status::Corruption(message);
  if (code_name == "Unavailable") return Status::Unavailable(message);
  if (code_name == "DeadlineExceeded") {
    return Status::DeadlineExceeded(message);
  }
  if (code_name == "Cancelled") return Status::Cancelled(message);
  return Status::Internal("shard returned unknown status code '" + code_name +
                          "': " + message);
}

}  // namespace qgp::shard
