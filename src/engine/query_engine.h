#ifndef QGP_ENGINE_QUERY_ENGINE_H_
#define QGP_ENGINE_QUERY_ENGINE_H_

/// \file
/// The multi-query engine layer: one long-lived QueryEngine per loaded
/// graph, evaluating a stream or batch of quantified patterns through a
/// shared CandidateCache and a shared ThreadPool. This is the "server
/// scenario" of the ROADMAP: per-graph work (label/degree candidate
/// filters, the worker pool, the DPar partition) is paid once and
/// amortized across the query mix instead of being torn down after every
/// evaluation.

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_space.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "parallel/partition.h"

namespace qgp {

/// Which matcher evaluates a submitted query. The engine dispatches to
/// the same entry points the standalone APIs expose; answers are
/// identical either way (the differential suite in
/// tests/engine/engine_differential_test.cc locks this down).
///
/// The §7 enumerate-then-verify baselines (EnumMatcher, PEnum) are not
/// served: they stay callable directly for the paper's benches and the
/// differential suites.
enum class EngineAlgo {
  kQMatch,   ///< QMatch::Evaluate — incremental negation (§4.2); with
             ///< MatchOptions::use_incremental_negation = false, the §7
             ///< QMatchn baseline.
  kPQMatch,  ///< PQMatch over the engine's lazily built DPar partition.
  kAuto,     ///< kPQMatch when partitioning pays, else kQMatch
             ///< (EngineOptions::partition_vertex_cutoff).
};

/// Stable lower-case name of an algorithm ("qmatch", "pqmatch", "auto").
const char* EngineAlgoName(EngineAlgo algo);

/// Parses an algorithm name as printed by EngineAlgoName; nullopt when
/// unknown.
std::optional<EngineAlgo> ParseEngineAlgo(std::string_view name);

/// One query of a workload: a parsed pattern plus per-query evaluation
/// knobs. Specs are value types — build them up front, submit them to
/// any engine bound to the right graph.
struct QuerySpec {
  /// The quantified pattern to evaluate (over the engine's graph).
  Pattern pattern;
  /// Matcher selection; unset runs as kQMatch. kAuto lets the engine
  /// choose; the resolved algorithm comes back in QueryOutcome::algo.
  std::optional<EngineAlgo> algo;
  /// Per-query matcher knobs (pruning toggles, scheduler grain).
  MatchOptions options;
  /// Evaluation deadline, milliseconds; 0 = none. Measured from the
  /// moment the query is admitted (queue wait under the admission lock
  /// is excluded — a service enforcing an end-to-end latency budget arms
  /// `options.cancel` itself from receipt time instead). On expiry the
  /// evaluation unwinds cooperatively and Submit returns
  /// kDeadlineExceeded; nothing the run computed is admitted into the
  /// result/candidate caches, so a timed-out query perturbs
  /// nothing — re-running without the deadline answers byte-identically
  /// to an engine that never saw the timeout (the engine timeout
  /// differential test locks this down). Composes with an external
  /// `options.cancel` token: the engine's deadline token chains to it as
  /// a parent, and whichever fires first wins.
  int64_t timeout_ms = 0;
  /// Cache admission: when false this query bypasses the engine's shared
  /// CandidateCache (it still interns within itself). Use it for one-off
  /// patterns whose filters would pollute the pool without ever being
  /// reused.
  bool share_cache = true;
  /// Caller-chosen label echoed back in the QueryOutcome (request id,
  /// workload family, ...). Not interpreted by the engine.
  std::string tag;
};

/// Result of one evaluated query.
struct QueryOutcome {
  /// Q(xo, G): sorted, duplicate-free focus matches.
  AnswerSet answers;
  /// Work counters for this query only (aggregated over fragments for
  /// the parallel algorithms).
  MatchStats stats;
  /// Wall-clock evaluation time, milliseconds.
  double wall_ms = 0;
  /// The matcher that actually produced this outcome: the submitted
  /// algorithm, or — under algo = auto — whatever the engine chose.
  /// On a result-cache hit this is the effective algorithm of the probe
  /// (the stored entry was keyed on exactly it).
  EngineAlgo algo = EngineAlgo::kQMatch;
  /// Shared-cache hits/misses attributable to this query (both zero when
  /// the spec opted out via share_cache = false).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// True when the whole result was served from the engine's result
  /// cache (EngineOptions::enable_result_cache): `answers` and `stats`
  /// replay the original evaluation, so both still equal a fresh run's.
  bool result_cache_hit = false;
  /// True when the answer was produced by the delta-repair fast path
  /// (EngineOptions::enable_delta_repair): the candidate space was
  /// repaired and only affected foci re-verified. Answers equal a fresh
  /// evaluation's; `stats` reflects the (smaller) repair work.
  bool delta_repaired = false;
  /// Echo of QuerySpec::tag.
  std::string tag;
};

/// Result of one QueryEngine::ApplyDelta.
struct DeltaOutcome {
  /// The graph version after this delta (monotonically increasing).
  uint64_t graph_version = 0;
  /// Net effect actually applied (set semantics; no-ops excluded).
  size_t vertices_added = 0;
  size_t vertices_removed = 0;
  size_t edges_added = 0;
  size_t edges_removed = 0;
  /// Stale interned candidate sets dropped from the shared cache.
  size_t candidate_sets_evicted = 0;
  /// Stale result-cache entries dropped.
  size_t results_invalidated = 0;
  /// True when a built DPar partition was discarded (it is rebuilt
  /// lazily on the next partition-parallel query).
  bool partition_invalidated = false;
  /// Wall-clock time of the apply + invalidation sweep, milliseconds.
  double wall_ms = 0;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Width of the engine's pool: every fan-out of a query (candidate
  /// build, simulation, focus verification, PQMatch fragments)
  /// runs on the submitting thread plus num_threads − 1 pool workers.
  /// 0 = hardware concurrency; 1 starts no worker and runs every
  /// fan-out inline.
  size_t num_threads = 0;
  /// Cache pressure policy: after a query completes, if the shared
  /// CandidateCache holds more than this many interned sets, the engine
  /// runs EvictUnused() (dropping every set no live query references).
  /// 0 = unbounded (never evict implicitly).
  size_t cache_max_entries = 0;
  /// DPar fragment count n for the lazily built partition that serves
  /// kPQMatch queries.
  size_t partition_fragments = 4;
  /// DPar hop-preservation depth d. Queries whose pattern radius exceeds
  /// it fail with InvalidArgument, exactly like standalone PQMatch.
  int partition_d = 2;
  /// Result cache: serve a repeat of an already-answered query — same
  /// pattern (canonical structural key, node names ignored), same
  /// algorithm, same MatchOptions — straight from memory. The stored
  /// outcome replays the original run's answers AND MatchStats, so hits
  /// are indistinguishable from re-evaluation in everything but wall
  /// clock; the engine-batch differential suite asserts exactly that.
  /// Off by default: repeat-heavy server traffic should opt in.
  bool enable_result_cache = false;
  /// LRU capacity of the result cache (entries). 0 = unbounded.
  size_t result_cache_max_entries = 1024;
  /// Delta repair: when a positive qmatch query that was
  /// answered before returns after ApplyDelta calls, repair its
  /// candidate space incrementally and re-verify only foci within
  /// pattern radius of the changes, keeping every other cached answer
  /// (QMatch::EvaluateRepaired). Answers are identical to a fresh
  /// evaluation; MatchStats reflect the smaller repair work, so
  /// workloads that assert stats identity should leave this off (the
  /// default).
  bool enable_delta_repair = false;
  /// Focus restriction for shard-mode engines (src/shard/): when
  /// engaged, every query evaluates only foci in this set — the owned
  /// vertices of one DPar fragment — exactly like a single
  /// PQMatch worker, so a coordinator that unions subset answers
  /// across shards gets each answer exactly once. nullopt (the default)
  /// = all foci, the historical behavior. An engaged-but-EMPTY set owns
  /// nothing and answers every query with the empty set (mirroring the
  /// parallel workers' empty-fragment skip — NOT "all candidates",
  /// which an empty span means in the lower-level subset APIs). The set
  /// is sorted/deduplicated at construction and ids outside the graph
  /// are dropped (they could never be answers). Under a subset the
  /// delta-repair fast path is disabled (the subset entry points carry
  /// no repair artifacts); the result cache stays valid because the
  /// subset only changes through ApplyDelta, whose version sweep drops
  /// every stored entry anyway.
  std::optional<std::vector<VertexId>> focus_subset;
  /// algo = auto runs a positive pattern as kPQMatch on a graph of at
  /// least this many vertices, when partition_fragments > 1 and the
  /// pattern's radius fits partition_d; everything else runs as kQMatch.
  size_t partition_vertex_cutoff = 200000;
};

/// Cumulative engine telemetry across every query since construction.
struct EngineStats {
  /// Successfully evaluated queries.
  uint64_t queries = 0;
  /// Queries that returned a non-OK status.
  uint64_t failed = 0;
  /// Subsets of `failed`, split by why the evaluation unwound: the
  /// query's own timeout_ms deadline expired (timeouts) vs. an external
  /// CancelToken fired — e.g. the service's drain token (cancellations).
  uint64_t timeouts = 0;
  uint64_t cancellations = 0;
  /// Sum of per-query MatchStats (scheduler telemetry included).
  MatchStats match;
  /// Sum of per-query wall clock, milliseconds.
  double wall_ms = 0;
  /// Shared-cache hits/misses across all queries (admission-bypassing
  /// queries contribute nothing).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Interned sets dropped by the cache_max_entries pressure policy and
  /// by explicit EvictUnused() calls.
  uint64_t cache_evicted = 0;
  /// Result-cache hits/misses (both stay zero when the result cache is
  /// disabled; admission-bypassing queries count as neither).
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  /// Applied graph deltas and their cumulative apply+invalidation time.
  uint64_t deltas = 0;
  double delta_wall_ms = 0;
  /// Result-cache entries invalidated by ApplyDelta version sweeps.
  uint64_t results_invalidated = 0;
  /// Delta-repair fast-path outcomes: repairs that kept locality
  /// (repair_hits) vs. repairs that degenerated to verifying every
  /// focus or to a fresh evaluation (repair_fallbacks).
  uint64_t repair_hits = 0;
  uint64_t repair_fallbacks = 0;
  /// hits / (hits + misses); 0 when the cache was never consulted.
  double HitRatio() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
  /// Result-cache hit ratio; 0 when it was never consulted.
  double ResultHitRatio() const {
    const uint64_t total = result_hits + result_misses;
    return total == 0 ? 0.0 : static_cast<double>(result_hits) / total;
  }
  /// The field list (common/field_list.h): counters, the two sums of
  /// milliseconds and the nested MatchStats.
  static constexpr auto Fields() {
    using S = EngineStats;
    using F = Field<S>;
    return std::tuple{
        F{"queries", &S::queries},
        F{"failed", &S::failed},
        F{"timeouts", &S::timeouts},
        F{"cancellations", &S::cancellations},
        Field<S, MatchStats>{"match", &S::match},
        Field<S, double>{"wall_ms", &S::wall_ms},
        F{"cache_hits", &S::cache_hits},
        F{"cache_misses", &S::cache_misses},
        F{"cache_evicted", &S::cache_evicted},
        F{"result_hits", &S::result_hits},
        F{"result_misses", &S::result_misses},
        F{"deltas", &S::deltas},
        Field<S, double>{"delta_wall_ms", &S::delta_wall_ms},
        F{"results_invalidated", &S::results_invalidated},
        F{"repair_hits", &S::repair_hits},
        F{"repair_fallbacks", &S::repair_fallbacks},
    };
  }
};

static_assert(sizeof(EngineStats) == FieldBytes(EngineStats::Fields()),
              "every EngineStats member needs an entry in Fields()");

/// A long-lived evaluation engine for one graph.
///
/// The engine owns the three per-graph artifacts every evaluation needs
/// and keeps them warm across queries:
///
///  * a CandidateCache interning label/degree candidate sets — queries
///    that share filter keys (pattern families, positified variants,
///    repeated requests) hit instead of recomputing;
///  * a ThreadPool, the one executor of every fan-out its queries make:
///    the work-stealing match scheduler, the parallel CandidateSpace
///    build, the lazy DPar build and the PQMatch fragments;
///  * lazily, a d-hop preserving DPar Partition serving the
///    partition-parallel algorithms.
///
/// Determinism contract: answers and MatchStats work counters of an
/// engine-evaluated query are identical to the standalone per-query API
/// at any thread count and any cache state — warm sets are equal by
/// value to freshly computed ones, and the scheduler never changes what
/// a slot computes (README "Concurrency model"). Only the scheduler
/// telemetry (MatchStats::scheduler_tasks/scheduler_steals) may vary.
///
/// Thread safety: Submit/RunBatch/EvictUnused/ClearResultCache/stats may
/// be called from any thread. Queries are admitted one at a time (an
/// internal admission mutex); each admitted query then fans out over the
/// whole shared pool, which keeps the machine saturated without
/// oversubscribing it. Callers wanting overlap across queries submit
/// from multiple client threads and let admission order decide.
///
/// Monitoring never stalls behind evaluation: telemetry (stats()), the
/// candidate-cache pressure valve (EvictUnused()) and the result cache
/// (ClearResultCache()) live behind their own short-held locks, NOT the
/// admission lock — a monitoring thread gets an answer in microseconds
/// even while a multi-second query is mid-flight (the engine concurrency
/// suite asserts this). A stats() snapshot taken mid-query reflects
/// every query completed so far; totals are exact whenever no query is
/// in flight.
class QueryEngine {
 public:
  /// Owning constructor: the engine takes the loaded graph.
  explicit QueryEngine(Graph graph, const EngineOptions& options = {});

  /// Borrowing constructor: `graph` must outlive the engine (the miner
  /// uses this over a caller-owned graph).
  explicit QueryEngine(const Graph* graph, const EngineOptions& options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Evaluates one query and updates the cumulative stats.
  Result<QueryOutcome> Submit(const QuerySpec& spec);

  /// Applies a batched graph mutation. Only owning engines accept
  /// deltas (a borrowed graph belongs to the caller); the borrowing
  /// constructor's engines return InvalidArgument.
  ///
  /// Sequencing: ApplyDelta takes the admission lock, so it BLOCKS until
  /// the in-flight query or batch drains, and queries submitted after
  /// it queue behind it — every query sees entirely the pre-delta or
  /// entirely the post-delta graph, never a mix (ARCHITECTURE.md
  /// "Mutable graphs" explains why block-not-snapshot). On success the
  /// graph version increases and every version-stamped cache is swept:
  /// stale interned candidate sets and stale result-cache entries are
  /// dropped (exactly the stale ones), and a built partition is
  /// discarded for lazy rebuild. On failure the graph, the caches and
  /// the version are untouched.
  Result<DeltaOutcome> ApplyDelta(const GraphDelta& delta);

  /// Name-level variant: interns added labels into the graph's
  /// dictionary, resolves removals without interning, then applies.
  /// Labels interned by a delta that subsequently fails validation stay
  /// interned (dictionary growth is harmless and never reversed).
  Result<DeltaOutcome> ApplyDelta(const NamedGraphDelta& delta);

  /// Shard-mode variant: applies `delta` and then extends the engine's
  /// focus subset (EngineOptions::focus_subset, which must be engaged)
  /// with `own_after_apply` — LOCAL vertex ids the coordinator newly
  /// assigned to this shard, valid against the POST-apply graph (a
  /// routed delta's freshly appended vertices may appear). The ids are
  /// validated against the post-apply vertex count before anything is
  /// applied; on any failure neither the graph nor the subset changes.
  Result<DeltaOutcome> ApplyDelta(const NamedGraphDelta& delta,
                                  std::span<const VertexId> own_after_apply);

  /// Current graph version (bumped by every successful ApplyDelta).
  /// Lock-free — safe from monitoring threads while queries and deltas
  /// are in flight.
  uint64_t graph_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Copy of the graph's label dictionary, taken under the admission
  /// lock so it is consistent with a fully applied delta. Services
  /// resolve label names against this snapshot and re-take it whenever
  /// graph_version() moves.
  LabelDict DictSnapshot() const;

  /// Evaluates a batch front to back, stopping at the first failure.
  /// Equivalent to (and implemented as) sequential Submit calls, so a
  /// batch enjoys the same warm-cache behavior a stream of Submits does.
  Result<std::vector<QueryOutcome>> RunBatch(std::span<const QuerySpec> specs);

  /// Explicitly drops interned candidate sets no live evaluation
  /// references (counted in EngineStats::cache_evicted). Safe to call
  /// between queries at any time; answers never change (locked down by
  /// the eviction-interleaved differential tests).
  size_t EvictUnused();

  /// Drops every stored result-cache entry; returns how many. Safe
  /// between queries — subsequent repeats simply re-evaluate.
  size_t ClearResultCache();

  /// Drain flag, set by a shutting-down service before it cancels its
  /// in-flight work. While draining, ApplyDelta stops waiting forever
  /// for admission (it gives up after 100 ms); Submit is
  /// unaffected — the service already sheds new queries itself, and the
  /// last in-flight ones must still be answerable. Clearing the flag
  /// restores normal behavior (engines are reusable across drains).
  void SetDraining(bool draining) {
    draining_.store(draining, std::memory_order_release);
  }
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// The lazily built partition for kPQMatch (built on first use
  /// with the engine's pool — identical to a serial DPar build). Exposed
  /// so drivers can report partition diagnostics.
  Result<const Partition*> partition();

  /// The graph every query evaluates against.
  const Graph& graph() const { return *graph_; }
  /// Cumulative telemetry snapshot. Never blocks behind a running query
  /// (its lock is held only for the per-query counter commits); totals
  /// are exact whenever no query is mid-flight. Failed queries
  /// contribute their wall time and cache traffic too, so an
  /// error-heavy workload reports its true load.
  EngineStats stats() const;
  /// The shared intern pool (for diagnostics; prefer EvictUnused()).
  CandidateCache& cache() { return cache_; }
  /// The shared worker pool.
  ThreadPool& pool() { return *pool_; }

 private:
  /// One stored result; `lru` points at this entry's slot in lru_.
  /// `version` stamps the graph the outcome was computed against —
  /// ApplyDelta sweeps entries whose stamp it outdates, and the probe
  /// re-checks as a belt-and-suspenders guard.
  struct ResultEntry {
    AnswerSet answers;
    MatchStats stats;
    std::list<std::string>::iterator lru;
    uint64_t version = 0;
  };

  /// Stored artifacts of one positive qmatch evaluation, the
  /// seed for the delta-repair fast path. Unlike result-cache entries
  /// these survive ApplyDelta — a stale space is exactly what Repair
  /// starts from.
  struct RepairEntry {
    CandidateSpace space;
    AnswerSet answers;
    uint64_t version = 0;
  };

  Result<QueryOutcome> SubmitAdmitted(const QuerySpec& spec);
  Result<const Partition*> PartitionAdmitted();
  /// Admission for deltas: rejects a borrowing engine with
  /// kInvalidArgument, then takes a plain blocking lock normally; while
  /// draining, a bounded try_lock_for that yields kUnavailable instead
  /// of stalling the drain. Every
  /// ApplyDelta overload goes through it, so past it `owned_graph_` is
  /// set.
  Result<std::unique_lock<std::timed_mutex>> AdmitDelta();
  Result<DeltaOutcome> ApplyDeltaAdmitted(const GraphDelta& delta);
  /// Merged summary of every delta in (from_version, current]; nullopt
  /// when the log no longer reaches back to from_version.
  std::optional<GraphDeltaSummary> ComposeDeltasSince(
      uint64_t from_version) const;
  /// Commits one finished query (successful or failed) into stats_ and
  /// runs the cache_max_entries pressure policy — the single exit path
  /// shared by every evaluation outcome. `failure_code` (kOk on success)
  /// classifies failures: kDeadlineExceeded / kCancelled feed the
  /// timeouts / cancellations counters.
  void AccountAndShedPressure(const QueryOutcome& outcome, bool failed,
                              StatusCode failure_code = StatusCode::kOk);

  /// Owning engines keep the mutable handle (deltas write through it);
  /// borrowing engines leave it null and reject ApplyDelta. graph_
  /// aliases owned_graph_ when owning.
  std::shared_ptr<Graph> owned_graph_;
  std::shared_ptr<const Graph> graph_;  // no-op deleter when borrowing
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  CandidateCache cache_;
  std::optional<Partition> partition_;
  /// Lock order: admission_mu_ → results_mu_ / telemetry_mu_ (the two
  /// leaf locks are never held together). Monitoring paths take only a
  /// leaf lock, so they cannot stall behind an admitted evaluation.
  ///
  /// Admission: held across one whole evaluation (and the lazy partition
  /// build) — queries run one at a time, each owning the shared pool.
  /// A timed mutex so a draining engine's ApplyDelta can bounded-wait
  /// (try_lock_for) instead of parking forever behind a query that the
  /// drain token is about to cancel.
  mutable std::timed_mutex admission_mu_;
  /// Telemetry: guards stats_ only; held for counter commits/snapshots.
  mutable std::mutex telemetry_mu_;
  EngineStats stats_;
  /// Result cache: canonical (algo, options, pattern) key → stored
  /// outcome, LRU order maintained in lru_ (front = most recent), both
  /// guarded by results_mu_ (held for probe/store/clear only).
  mutable std::mutex results_mu_;
  std::unordered_map<std::string, ResultEntry> results_;
  std::list<std::string> lru_;
  /// Mutability state. version_ mirrors graph_->version() for lock-free
  /// reads; it is written only under the admission lock. delta_log_ and
  /// repair_ are touched only under the admission lock (deltas and
  /// evaluations are both admitted), so they need no extra lock.
  std::atomic<uint64_t> version_{0};
  std::deque<GraphDeltaSummary> delta_log_;
  std::unordered_map<std::string, RepairEntry> repair_;
  /// Drain flag (SetDraining). Read lock-free by ApplyDelta admission.
  std::atomic<bool> draining_{false};
};

}  // namespace qgp

#endif  // QGP_ENGINE_QUERY_ENGINE_H_
