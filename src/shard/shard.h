#ifndef QGP_SHARD_SHARD_H_
#define QGP_SHARD_SHARD_H_

/// \file
/// One shard of a sharded engine: a QueryEngine serving a single DPar
/// fragment (base region + replicated border balls) whose focus subset
/// is the fragment's OWNED vertices, so per-shard answer sets are
/// disjoint by construction and the coordinator's merge is a plain
/// union (sharded_engine.h).
///
/// Two transports implement the same interface:
///
///  * InProcessShard — wraps a QueryEngine directly. The pattern still
///    travels as DSL TEXT and is re-parsed against the shard's own dict
///    snapshot, exactly like the remote path: after routed deltas the
///    per-shard dicts may intern labels in different orders than the
///    coordinator's, so a parsed Pattern's label ids are only
///    meaningful against the dict that parsed them.
///  * RemoteShard — speaks the qgp_service newline-JSON protocol over
///    a ServiceClient to a `qgp_cli shard-serve` process. The existing
///    wire codec IS the shard serialization boundary (patterns as DSL
///    text, MatchOptions/answers/MatchStats/deltas as their service
///    encodings), plus the delta-only "own" field for ownership
///    handoff.
///
/// Answers come back in the shard's LOCAL vertex ids; the coordinator
/// maps them through its local→global table.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "service/client.h"

namespace qgp::shard {

/// One scattered query as a shard sees it: the pattern in parser DSL
/// text (serialized once by the coordinator against its master dict)
/// plus evaluation knobs.
struct ShardQuery {
  std::string pattern_text;
  std::optional<EngineAlgo> algo;
  /// options.cancel (when set) is the coordinator's per-shard token —
  /// honored by in-process shards; remote shards rely on the wire
  /// `timeout_ms` plus the client read timeout instead (a pointer does
  /// not serialize).
  MatchOptions options;
  /// Wire deadline for remote shards, milliseconds, 0 = none.
  int64_t timeout_ms = 0;
  std::string tag;
};

/// Transport-neutral shard handle. Implementations are NOT thread-safe
/// per instance; the coordinator drives each shard from one thread at a
/// time (its admission lock serializes operations, and a scatter hands
/// each shard to exactly one runner of its fan-out).
class Shard {
 public:
  virtual ~Shard() = default;

  /// Evaluates `query` over the fragment's owned foci. Answers are
  /// LOCAL vertex ids, sorted (the engine canonicalizes).
  virtual Result<QueryOutcome> Submit(const ShardQuery& query) = 0;

  /// Applies a routed delta expressed in the shard's LOCAL id space and
  /// extends the owned-focus set with `own_local` (post-apply local
  /// ids; may reference vertices the delta itself appends).
  virtual Status ApplyDelta(const NamedGraphDelta& delta,
                            const std::vector<VertexId>& own_local) = 0;
};

/// Builds the QueryEngine for one fragment: `base` plus the shard-mode
/// overrides (focus_subset = `owned_local`, partition_d = `d` so a
/// nested pqmatch partition preserves the same radius bound).
/// Shared by InProcessShard, `qgp_cli shard-serve`, and tests so every
/// transport serves an identically configured engine.
std::unique_ptr<QueryEngine> MakeShardEngine(Graph fragment_graph,
                                             std::vector<VertexId> owned_local,
                                             int d, EngineOptions base);

/// Shard in the coordinator's process.
class InProcessShard : public Shard {
 public:
  explicit InProcessShard(std::unique_ptr<QueryEngine> engine)
      : engine_(std::move(engine)) {}

  Result<QueryOutcome> Submit(const ShardQuery& query) override;
  Status ApplyDelta(const NamedGraphDelta& delta,
                    const std::vector<VertexId>& own_local) override;

  QueryEngine& engine() { return *engine_; }

 private:
  std::unique_ptr<QueryEngine> engine_;
};

/// Shard behind a qgp_service endpoint (process-per-shard mode).
class RemoteShard : public Shard {
 public:
  explicit RemoteShard(service::ServiceClient client)
      : client_(std::move(client)) {}

  Result<QueryOutcome> Submit(const ShardQuery& query) override;
  Status ApplyDelta(const NamedGraphDelta& delta,
                    const std::vector<VertexId>& own_local) override;

 private:
  service::ServiceClient client_;
};

/// Reconstructs a Status from the wire (error_code name as printed by
/// StatusCodeName + message). Unknown names map to Internal — a shard
/// speaking an unknown dialect is a deployment bug, not client error.
Status StatusFromWire(const std::string& code_name, const std::string& message);

}  // namespace qgp::shard

#endif  // QGP_SHARD_SHARD_H_
