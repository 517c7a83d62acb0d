#ifndef QGP_SHARD_SHARDED_ENGINE_H_
#define QGP_SHARD_SHARDED_ENGINE_H_

/// \file
/// ShardedEngine: scatter-gather serving over DPar fragments.
///
/// Create() partitions the master graph with DPar (d-hop preserving,
/// Lemma 8/9 of the paper) and loads every fragment — base region plus
/// replicated border balls — as an independent QueryEngine shard whose
/// focus subset is the fragment's OWNED vertices. Ownership partitions
/// V, and a fragment preserves the full d-hop neighborhood of each
/// owned vertex, so for any pattern with radius ≤ d:
///
///  * per-shard answer sets are DISJOINT (dedup by construction —
///    answers found in border-ball overlap are reported only by the
///    owner, so the merge is concat + Canonicalize, never a count
///    merge: a counting quantifier evaluated across a cut is counted
///    once, by the owner, over its complete d-hop ball);
///  * their union over all shards equals the single-engine answer set
///    exactly, with identical summed non-scheduler MatchStats.
///
/// Queries scatter to all shards concurrently as one fan-out on the
/// engine's pool, num_shards wide: the submitting thread runs shards
/// itself next to num_shards − 1 pool workers, so no query creates a
/// thread, and a 1-shard engine scatters inline. Per-shard deadlines
/// are cooperative CancelTokens. Answers gather through local→global id
/// mapping into one canonical AnswerSet. A failed or timed-out shard
/// degrades per ShardedOptions::failure_policy:
/// fail-query (default: first shard error fails the whole query) or
/// best-effort (answers from live shards, ShardedOutcome::partial set).
/// An explicit cancellation (kCancelled) always fails the whole query —
/// a drained coordinator must not masquerade as a partial answer.
///
/// ApplyDelta keeps the system one logical graph: the delta applies to
/// the coordinator's master copy first, then routes to each shard as a
/// LOCAL-id sub-delta covering the owned d-hop neighborhoods it
/// perturbs, importing replicas the shard has never seen (with their
/// incident now-local edges) and handing new vertices to the
/// least-loaded shard via the wire-level `own` extension. Per-shard
/// admission locks make each hop atomic; a shard that rejects its
/// routed delta flips the engine into a sticky degraded state (every
/// subsequent Submit/ApplyDelta fails with Internal) rather than
/// serving answers from diverged fragments. Replicas that a delta makes
/// stale-but-unreferenced are left in place: owned neighborhoods stay
/// exact (invariant L_i ⊇ ∪_{v owned} N_d(v)), only fragment sizes
/// drift vs a fresh partition.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "parallel/partition.h"
#include "shard/shard.h"

namespace qgp::shard {

/// What a shard failure (error or per-shard deadline) does to the
/// in-flight query.
enum class FailurePolicy {
  kFailQuery,   ///< first shard error fails the whole query
  kBestEffort,  ///< merge live shards, mark the outcome partial
};

struct ShardedOptions {
  /// DPar fan-out (== number of shards).
  size_t num_shards = 2;
  /// Hop-preservation depth: patterns with Radius() > d are rejected.
  int d = 2;
  double balance_factor = 1.6;
  FailurePolicy failure_policy = FailurePolicy::kFailQuery;
  /// Per-shard evaluation deadline, ms, 0 = none. In-process shards
  /// get a CancelToken; remote shards get it as the wire timeout_ms.
  int64_t shard_timeout_ms = 0;
  /// Process-per-shard mode: one qgp_service port per fragment (size
  /// must equal num_shards), each already serving the matching
  /// exported fragment bundle (`qgp_cli shard-export` + `shard-serve`).
  /// Empty = in-process shards.
  std::vector<int> remote_ports;
  std::string remote_host = "127.0.0.1";
  /// Socket read timeout for remote shards, ms, 0 = block. Set this in
  /// remote deployments: it is what turns a hung shard into a
  /// policy-visible failure instead of a stuck coordinator.
  int64_t remote_read_timeout_ms = 0;
  /// Base options for in-process shard engines (focus_subset and
  /// partition_d are overridden per fragment).
  EngineOptions engine;
};

/// One shard's contribution to a gathered query.
struct ShardSlice {
  size_t shard = 0;
  bool ok = false;
  /// How many of ShardedOutcome::answers this shard contributed (the
  /// foci it owns that matched).
  size_t answer_count = 0;
  double wall_ms = 0;
  /// StatusCodeName of the failure when !ok.
  std::string error_code;
  std::string error_message;
};

struct ShardedOutcome {
  /// Union of the per-shard owned answers, global ids, canonical.
  AnswerSet answers;
  /// Sum over contributing shards. Non-scheduler counters equal the
  /// single-engine kPQMatch counters for the same partition config.
  MatchStats stats;
  double wall_ms = 0;
  /// Best-effort only: true when at least one shard failed and its
  /// slice is missing from `answers`.
  bool partial = false;
  std::vector<ShardSlice> shards;
  std::string tag;
};

struct ShardedDeltaOutcome {
  uint64_t graph_version = 0;
  size_t vertices_added = 0;
  size_t vertices_removed = 0;
  size_t edges_added = 0;
  size_t edges_removed = 0;
  /// Shards that received a routed sub-delta (others kept their warm
  /// caches untouched).
  size_t shards_touched = 0;
  /// Replicas newly imported across all shards.
  size_t vertices_imported = 0;
  double wall_ms = 0;
};

class ShardedEngine {
 public:
  /// Partitions `graph` with DPar(num_shards, d, balance_factor) and
  /// loads every fragment as a shard (in-process, or remote when
  /// remote_ports is set).
  static Result<std::unique_ptr<ShardedEngine>> Create(
      Graph graph, const ShardedOptions& options);

  /// Same, over a caller-supplied partition of `graph` (pinned-topology
  /// tests). The partition must validate against `graph` with
  /// options.d.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      Graph graph, Partition partition, const ShardedOptions& options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Scatter-gather evaluation. spec.pattern must be parsed against
  /// graph().dict() (the coordinator re-serializes it to DSL text for
  /// the shards). spec.timeout_ms bounds the whole query;
  /// options.cancel (if set) must outlive the call.
  Result<ShardedOutcome> Submit(const QuerySpec& spec);

  /// Applies `delta` to the master graph and routes the perturbed
  /// owned neighborhoods to each shard. Serialized against Submit by
  /// the coordinator admission lock; per-shard hops take each shard's
  /// own admission lock.
  Result<ShardedDeltaOutcome> ApplyDelta(const NamedGraphDelta& delta);

  const Graph& graph() const { return graph_; }
  size_t num_shards() const { return shards_.size(); }
  int d() const { return d_; }
  uint64_t graph_version() const { return graph_.version(); }
  /// Sticky: a shard rejected a routed delta; fragments may have
  /// diverged from the master, so everything fails until rebuilt.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  /// Owned-vertex count per shard (ownership partitions V).
  std::vector<size_t> OwnedCounts() const;

 private:
  struct ShardState {
    std::unique_ptr<Shard> shard;
    std::vector<VertexId> local_to_global;
    std::unordered_map<VertexId, VertexId> global_to_local;
    std::vector<VertexId> owned_global;  // sorted
  };

  ShardedEngine(Graph graph, const ShardedOptions& options)
      : graph_(std::move(graph)), options_(options), d_(options.d) {}

  Result<ShardedDeltaOutcome> ApplyDeltaAdmitted(const NamedGraphDelta& delta);

  Graph graph_;  ///< the coordinator's master copy (authoritative)
  ShardedOptions options_;
  int d_;
  std::vector<ShardState> shards_;
  /// The scatter executor, num_shards wide. Each in-process shard's
  /// engine keeps its own pool for the fan-outs inside its queries.
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes Submit against ApplyDelta (same discipline as
  /// QueryEngine::admission_mu_): every query sees entirely the pre- or
  /// post-delta system.
  std::mutex admission_mu_;
  std::atomic<bool> degraded_{false};
};

}  // namespace qgp::shard

#endif  // QGP_SHARD_SHARDED_ENGINE_H_
