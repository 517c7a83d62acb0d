#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"
#include "core/qmatch.h"
#include "parallel/dpar.h"
#include "parallel/pqmatch.h"

namespace qgp {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::shared_ptr<const Graph> BorrowGraph(const Graph* graph) {
  // Aliasing handle with a no-op deleter: the engine machinery uniformly
  // holds a shared_ptr, the caller keeps ownership and must outlive us.
  return std::shared_ptr<const Graph>(graph, [](const Graph*) {});
}

// Canonical result-cache key. Deliberately NOT PatternParser::Serialize:
// that renders node names, and two distinct patterns can share names.
// Numeric node ids + label ids + quantifier text identify the structure
// exactly; the algorithm and every answer/work-relevant MatchOptions
// field are folded in because a stored outcome replays the original
// run's MatchStats, which the option toggles change (answers never
// depend on them, stats do). scheduler_grain is deliberately NOT keyed:
// it moves only the scheduler telemetry, which the determinism contract
// already excludes; neither is max_isomorphisms, which only the
// enumeration baselines read. Keyed on the EFFECTIVE algo — resolved,
// never the submitted spec — so an auto query shares its entry with the
// manual submission it resolved to.
std::string ResultKey(EngineAlgo algo, const MatchOptions& o,
                      const Pattern& q) {
  std::ostringstream key;
  key << EngineAlgoName(algo) << '|' << o.use_simulation
      << o.use_quantifier_pruning << o.use_potential_ordering
      << o.early_stop_counting << o.use_incremental_negation << '|'
      << o.max_quantified_per_path << '|' << o.ball_limit << '|';
  for (PatternNodeId u = 0; u < q.num_nodes(); ++u) {
    key << 'n' << q.node(u).label << ';';
  }
  for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    key << 'e' << pe.src << ',' << pe.dst << ',' << pe.label << ','
        << pe.quantifier.ToString() << ';';
  }
  key << 'f' << q.focus();
  return std::move(key).str();
}

/// Resolves algo = auto; any other algo passes through. Fragment-parallel
/// evaluation pays for its scatter/gather only on big graphs, and needs
/// the pattern's radius to fit the partition's hop-preservation depth.
/// Negated patterns stay on QMatch. Reads only the pattern, the graph
/// size and the options, so the choice never depends on cache state.
EngineAlgo ResolveAlgo(EngineAlgo requested, const Pattern& q,
                       size_t num_vertices, const EngineOptions& o) {
  if (requested != EngineAlgo::kAuto) return requested;
  const bool partition_pays =
      q.IsPositive() && num_vertices >= o.partition_vertex_cutoff &&
      o.partition_fragments > 1 && q.Radius() <= o.partition_d;
  return partition_pays ? EngineAlgo::kPQMatch : EngineAlgo::kQMatch;
}

/// Normalizes EngineOptions::focus_subset: sorted, deduplicated, ids
/// outside the graph dropped (they could never be answers). Engaged vs
/// disengaged is preserved — an engaged set that ends up empty still
/// means "owns nothing", not "all foci".
void NormalizeFocusSubset(std::optional<std::vector<VertexId>>& subset,
                          size_t num_vertices) {
  if (!subset.has_value()) return;
  std::sort(subset->begin(), subset->end());
  subset->erase(std::unique(subset->begin(), subset->end()), subset->end());
  while (!subset->empty() && subset->back() >= num_vertices) {
    subset->pop_back();
  }
}

}  // namespace

const char* EngineAlgoName(EngineAlgo algo) {
  switch (algo) {
    case EngineAlgo::kQMatch:
      return "qmatch";
    case EngineAlgo::kPQMatch:
      return "pqmatch";
    case EngineAlgo::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<EngineAlgo> ParseEngineAlgo(std::string_view name) {
  if (name == "qmatch") return EngineAlgo::kQMatch;
  if (name == "pqmatch") return EngineAlgo::kPQMatch;
  if (name == "auto") return EngineAlgo::kAuto;
  return std::nullopt;
}

QueryEngine::QueryEngine(Graph graph, const EngineOptions& options)
    : owned_graph_(std::make_shared<Graph>(std::move(graph))),
      graph_(owned_graph_),
      options_(options),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(options.num_threads))),
      cache_(*graph_, options.cache_budget_bytes) {
  NormalizeFocusSubset(options_.focus_subset, graph_->num_vertices());
  version_.store(graph_->version(), std::memory_order_release);
}

QueryEngine::QueryEngine(const Graph* graph, const EngineOptions& options)
    : graph_(BorrowGraph(graph)),
      options_(options),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(options.num_threads))),
      cache_(*graph_, options.cache_budget_bytes) {
  NormalizeFocusSubset(options_.focus_subset, graph_->num_vertices());
  version_.store(graph_->version(), std::memory_order_release);
}

Result<QueryOutcome> QueryEngine::Submit(const QuerySpec& spec) {
  QGP_FAILPOINT("engine.submit");
  std::lock_guard<std::timed_mutex> lock(admission_mu_);
  return SubmitAdmitted(spec);
}

Result<std::vector<QueryOutcome>> QueryEngine::RunBatch(
    std::span<const QuerySpec> specs) {
  QGP_FAILPOINT("engine.submit");
  std::lock_guard<std::timed_mutex> lock(admission_mu_);
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    QGP_ASSIGN_OR_RETURN(QueryOutcome outcome, SubmitAdmitted(spec));
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

Result<QueryOutcome> QueryEngine::SubmitAdmitted(const QuerySpec& spec) {
  QueryOutcome outcome;
  outcome.tag = spec.tag;
  const uint64_t current_version = graph_->version();
  // Deadline enforcement: arm a token over the evaluation, chained to
  // any caller-provided one (whichever fires first wins). The clock
  // starts here — at admission — so timeout_ms budgets the evaluation
  // itself, not the admission queue (see QuerySpec::timeout_ms).
  std::optional<CancelToken> deadline_token;
  if (spec.timeout_ms > 0) {
    deadline_token.emplace(
        CancelToken::Clock::now() +
            std::chrono::milliseconds(spec.timeout_ms),
        spec.options.cancel);
  }
  // Resolve the matcher FIRST: everything downstream — result-cache key,
  // repair key, dispatch — speaks the effective algorithm, never the
  // submitted one. An unset spec algo runs as qmatch.
  const EngineAlgo effective =
      ResolveAlgo(spec.algo.value_or(EngineAlgo::kQMatch), spec.pattern,
                  graph_->num_vertices(), options_);
  outcome.algo = effective;
  MatchOptions effective_options = spec.options;
  // The deadline token rides the effective options into every matcher
  // and cache build; a caller-provided token was already there (and is
  // now this token's parent).
  if (deadline_token.has_value()) effective_options.cancel = &*deadline_token;
  // Shard mode, engaged-but-empty subset: this engine owns no foci, so
  // every (valid) query answers with the empty set. Short-circuited
  // HERE because the lower-level subset entry points read an empty span
  // as "all candidates" — the opposite meaning. Mirrors the parallel
  // workers' empty-fragment skip: zero work counters, nothing admitted
  // into any cache.
  if (options_.focus_subset.has_value() && options_.focus_subset->empty()) {
    const Status valid =
        spec.pattern.Validate(effective_options.max_quantified_per_path);
    if (!valid.ok()) {
      AccountAndShedPressure(outcome, /*failed=*/true, valid.code());
      return valid;
    }
    AccountAndShedPressure(outcome, /*failed=*/false);
    return outcome;
  }
  // Delta-repair fast path: a positive qmatch query whose
  // artifacts we stored at an earlier graph version is re-answered by
  // repairing its candidate space and re-verifying only affected foci.
  // Negated patterns are ineligible (every positified subtrahend would
  // need re-evaluation anyway).
  // Under a shard focus subset the repair path is disabled too: the
  // subset entry points carry no repair artifacts, and a stored
  // full-graph seed would repair to the UNRESTRICTED answer set.
  const bool repair_eligible =
      options_.enable_delta_repair && effective == EngineAlgo::kQMatch &&
      spec.pattern.IsPositive() && !options_.focus_subset.has_value();
  const bool use_results = options_.enable_result_cache;
  std::string key;  // of the result cache and the repair store
  if (use_results || repair_eligible) {
    key = ResultKey(effective, effective_options, spec.pattern);
  }
  // Result-cache probe: a repeat of an answered query is served from
  // memory, replaying the original answers and work counters.
  if (use_results) {
    WallTimer hit_timer;
    CachedResult hit;
    if (cache_.FindResult(key, &hit)) {
      outcome.answers = std::move(hit.answers);
      outcome.stats = hit.stats;
      outcome.result_cache_hit = true;
      outcome.wall_ms = hit_timer.ElapsedSeconds() * 1000.0;
      std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
      ++stats_.queries;
      ++stats_.result_hits;
      stats_.match.Add(outcome.stats);
      stats_.wall_ms += outcome.wall_ms;
      return outcome;
    }
    // The miss is counted at the store point below: failed evaluations
    // are never cacheable, so they should not drag ResultHitRatio down.
  }
  // No-cache-poisoning bracket: remember the cache's admission epoch
  // before any of this run's work so a cancelled unwind can roll its
  // insertions back.
  const uint64_t cache_mark = cache_.MarkEpoch();
  const CandidateCache::Stats cache_before = cache_.stats();
  WallTimer timer;
  Result<AnswerSet> answers = Status::Ok();
  QMatchArtifacts artifacts;
  QMatchArtifacts* artifacts_out = repair_eligible ? &artifacts : nullptr;
  bool repaired_now = false;
  if (repair_eligible) {
    auto rit = repair_.find(key);
    if (rit != repair_.end()) {
      std::optional<GraphDeltaSummary> composed =
          ComposeDeltasSince(rit->second.version);
      if (composed.has_value()) {
        bool fell_back = false;
        Result<AnswerSet> repaired = QMatch::EvaluateRepaired(
            spec.pattern, *graph_, effective_options, rit->second.space,
            rit->second.answers, *composed, &outcome.stats, pool_.get(),
            &cache_, artifacts_out, &fell_back);
        if (repaired.ok()) {
          answers = std::move(repaired);
          repaired_now = true;
          outcome.delta_repaired = true;
          std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
          if (fell_back) {
            ++stats_.repair_fallbacks;
          } else {
            ++stats_.repair_hits;
          }
        }
        // A repair error falls through to the full evaluation below.
      } else {
        // The delta log no longer reaches back to the stored version.
        std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
        ++stats_.repair_fallbacks;
      }
    }
  }
  if (!repaired_now) {
    // Shard mode: every sequential family evaluates only the owned foci
    // via the subset entry points (the empty-subset case short-circuited
    // above, so the span passed down here is always non-empty).
    const bool subset = options_.focus_subset.has_value();
    switch (effective) {
      case EngineAlgo::kQMatch:
        answers = subset
                      ? QMatch::EvaluateSubset(spec.pattern, *graph_,
                                               *options_.focus_subset,
                                               effective_options,
                                               &outcome.stats, pool_.get(),
                                               &cache_)
                      : QMatch::Evaluate(spec.pattern, *graph_,
                                         effective_options, &outcome.stats,
                                         pool_.get(), &cache_, artifacts_out);
        break;
      case EngineAlgo::kPQMatch: {
        auto part = PartitionAdmitted();
        if (!part.ok()) {
          answers = part.status();
          break;
        }
        ParallelConfig config;
        config.mode = ExecutionMode::kThreads;
        config.pool = pool_.get();
        config.match = effective_options;
        Result<ParallelRunResult> run =
            PQMatch::Evaluate(spec.pattern, **part, config);
        if (!run.ok()) {
          answers = run.status();
          break;
        }
        outcome.stats.Add(run->stats);
        answers = std::move(run->answers);
        if (subset) {
          // The nested partition evaluated ALL of this shard's vertices
          // as foci; only the owned ones are exact here (border
          // replicas' neighborhoods are incomplete in a fragment
          // graph), and only they belong to this shard's slice.
          answers = SetIntersection(answers.value(), *options_.focus_subset);
        }
        break;
      }
      case EngineAlgo::kAuto:
        // ResolveAlgo never returns kAuto; reaching here is a logic bug.
        answers = Status::Internal("algo=auto was not resolved to a matcher");
        break;
    }
  }
  outcome.wall_ms = timer.ElapsedSeconds() * 1000.0;
  const CandidateCache::Stats cache_after = cache_.stats();
  outcome.cache_hits = cache_after.hits - cache_before.hits;
  outcome.cache_misses = cache_after.misses - cache_before.misses;
  if (!answers.ok()) {
    const StatusCode code = answers.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      // No cache poisoning: a cancelled run admits nothing. Candidate
      // sets it interned are rolled back (they are complete by value,
      // but the invariant is "zero entries admitted by a timed-out
      // run", which makes cancellation perturbation-free and testable).
      // Results and repair seeds are only ever stored on success, so
      // they need no rollback.
      cache_.EvictInsertedSince(cache_mark);
    }
    // Failures are load too: their wall time and cache traffic feed the
    // cumulative stats, and the budget below is still enforced — an
    // error-heavy workload must neither under-report itself nor grow
    // the cache past its budget.
    AccountAndShedPressure(outcome, /*failed=*/true, code);
    return answers.status();
  }
  outcome.answers = std::move(answers).value();
  if (repair_eligible) {
    // Store (or refresh) the repair seed at the current version. The
    // bound sheds an arbitrary entry — the store is a seed cache, not a
    // correctness structure, so any victim is acceptable.
    constexpr size_t kRepairStoreMaxEntries = 64;
    if (repair_.find(key) == repair_.end() &&
        repair_.size() >= kRepairStoreMaxEntries) {
      repair_.erase(repair_.begin());
    }
    repair_[key] = RepairEntry{std::move(artifacts.pi_space),
                               outcome.answers, current_version};
  }
  if (use_results) {
    {
      std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
      ++stats_.result_misses;
    }
    cache_.AdmitResult(std::move(key),
                       CachedResult{outcome.answers, outcome.stats});
  }
  AccountAndShedPressure(outcome, /*failed=*/false);
  return outcome;
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(const GraphDelta& delta) {
  QGP_ASSIGN_OR_RETURN(std::unique_lock<std::timed_mutex> lock, AdmitDelta());
  return ApplyDeltaAdmitted(delta);
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(const NamedGraphDelta& delta) {
  QGP_ASSIGN_OR_RETURN(std::unique_lock<std::timed_mutex> lock, AdmitDelta());
  return ApplyDeltaAdmitted(
      ResolveDelta(delta, &owned_graph_->mutable_dict()));
}

Result<DeltaOutcome> QueryEngine::ApplyDelta(
    const NamedGraphDelta& delta, std::span<const VertexId> own_after_apply) {
  QGP_ASSIGN_OR_RETURN(std::unique_lock<std::timed_mutex> lock, AdmitDelta());
  if (!options_.focus_subset.has_value()) {
    return Status::InvalidArgument(
        "own_after_apply requires an engine with an engaged focus subset "
        "(EngineOptions::focus_subset)");
  }
  // Validate the ownership extension against the post-apply vertex
  // count BEFORE applying anything, so a bad own list leaves both the
  // graph and the subset untouched (a routed delta's freshly appended
  // vertices get ids num_vertices()..num_vertices()+adds-1).
  const size_t post_vertices =
      graph_->num_vertices() + delta.add_vertices.size();
  for (VertexId v : own_after_apply) {
    if (v >= post_vertices) {
      return Status::InvalidArgument(
          "own_after_apply id " + std::to_string(v) +
          " out of range for the post-delta graph (" +
          std::to_string(post_vertices) + " vertices)");
    }
  }
  QGP_ASSIGN_OR_RETURN(
      DeltaOutcome out,
      ApplyDeltaAdmitted(ResolveDelta(delta, &owned_graph_->mutable_dict())));
  std::vector<VertexId>& subset = *options_.focus_subset;
  subset.insert(subset.end(), own_after_apply.begin(), own_after_apply.end());
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  return out;
}

Result<std::unique_lock<std::timed_mutex>> QueryEngine::AdmitDelta() {
  if (owned_graph_ == nullptr) {
    return Status::InvalidArgument(
        "ApplyDelta requires an owning engine (this engine borrows its "
        "graph)");
  }
  std::unique_lock<std::timed_mutex> lock(admission_mu_, std::defer_lock);
  if (!draining_.load(std::memory_order_acquire)) {
    // Normal operation: block exactly as before — every query sees
    // entirely the pre- or post-delta graph.
    lock.lock();
    return lock;
  }
  // Draining: the in-flight query is about to be cancelled, but a delta
  // must not park forever behind it (a delta is non-cancellable once
  // admitted). Bounded wait, then tell the caller to retry later.
  if (!lock.try_lock_for(std::chrono::milliseconds(100))) {
    return Status::Unavailable(
        "engine is draining; delta admission timed out");
  }
  return lock;
}

Result<DeltaOutcome> QueryEngine::ApplyDeltaAdmitted(const GraphDelta& delta) {
  QGP_FAILPOINT("engine.apply_delta");
  WallTimer timer;
  QGP_ASSIGN_OR_RETURN(GraphDeltaSummary summary,
                       owned_graph_->ApplyDelta(delta));
  version_.store(summary.version, std::memory_order_release);
  DeltaOutcome out;
  out.graph_version = summary.version;
  out.vertices_added = summary.vertices_added.size();
  out.vertices_removed = summary.vertices_removed.size();
  out.edges_added = summary.edges_added.size();
  out.edges_removed = summary.edges_removed.size();
  // The log composes multi-version repairs; a repair whose stored seed
  // predates it falls back to full evaluation.
  constexpr size_t kDeltaLogMaxEntries = 64;
  delta_log_.push_back(std::move(summary));
  if (delta_log_.size() > kDeltaLogMaxEntries) delta_log_.pop_front();
  // Version-keyed invalidation: exactly the stale entries go (every
  // pre-delta entry is stale by construction). The repair store is
  // deliberately NOT swept — stale spaces are the repair seeds.
  const CandidateCache::StaleEvicted stale = cache_.EvictStale();
  out.candidate_sets_evicted = stale.sets;
  out.results_invalidated = stale.results;
  out.partition_invalidated = partition_.has_value();
  partition_.reset();
  out.wall_ms = timer.ElapsedSeconds() * 1000.0;
  {
    std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
    ++stats_.deltas;
    stats_.delta_wall_ms += out.wall_ms;
    stats_.results_invalidated += out.results_invalidated;
    stats_.cache_evicted += out.candidate_sets_evicted;
  }
  return out;
}

std::optional<GraphDeltaSummary> QueryEngine::ComposeDeltasSince(
    uint64_t from_version) const {
  const uint64_t current = graph_->version();
  if (from_version == current) {
    // No delta since the artifacts were stored: an empty summary at the
    // current version repairs to shared-handle reuse.
    GraphDeltaSummary none;
    none.version = current;
    return none;
  }
  if (from_version > current) return std::nullopt;
  GraphDeltaSummary composed;
  bool started = false;
  for (const GraphDeltaSummary& s : delta_log_) {
    if (s.version <= from_version) continue;
    if (!started) {
      composed = s;
      started = true;
    } else {
      composed.MergeFrom(s);
    }
  }
  // The log must cover every version in (from, current] contiguously;
  // a trimmed log forces the caller back to full evaluation.
  if (!started || composed.version != current) return std::nullopt;
  size_t covered = 0;
  for (const GraphDeltaSummary& s : delta_log_) {
    if (s.version > from_version) ++covered;
  }
  if (covered != current - from_version) return std::nullopt;
  return composed;
}

LabelDict QueryEngine::DictSnapshot() const {
  std::lock_guard<std::timed_mutex> lock(admission_mu_);
  return graph_->dict();
}

void QueryEngine::AccountAndShedPressure(const QueryOutcome& outcome,
                                         bool failed,
                                         StatusCode failure_code) {
  {
    std::lock_guard<std::mutex> telemetry_lock(telemetry_mu_);
    if (failed) {
      ++stats_.failed;
      if (failure_code == StatusCode::kDeadlineExceeded) {
        ++stats_.timeouts;
      } else if (failure_code == StatusCode::kCancelled) {
        ++stats_.cancellations;
      }
    } else {
      ++stats_.queries;
      stats_.match.Add(outcome.stats);
    }
    stats_.wall_ms += outcome.wall_ms;
    stats_.cache_hits += outcome.cache_hits;
    stats_.cache_misses += outcome.cache_misses;
  }
  // What the finished evaluation held is evictable now; failed ones
  // interned sets too.
  cache_.EvictToBudget();
}

size_t QueryEngine::EvictUnused() {
  // No admission lock: the intern pool is internally synchronized and
  // refcounted, so shedding unused sets is safe even while a query is
  // mid-flight — monitoring and memory-pressure valves stay responsive.
  const size_t evicted = cache_.EvictUnused();
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  stats_.cache_evicted += evicted;
  return evicted;
}

Result<const Partition*> QueryEngine::partition() {
  std::lock_guard<std::timed_mutex> lock(admission_mu_);
  return PartitionAdmitted();
}

Result<const Partition*> QueryEngine::PartitionAdmitted() {
  if (!partition_.has_value()) {
    DParConfig config;
    config.num_fragments = options_.partition_fragments;
    config.d = options_.partition_d;
    // The pool-parallel DPar build is identical to the serial one
    // (scheduler_determinism_test locks partition identity down).
    QGP_ASSIGN_OR_RETURN(Partition built,
                         DPar(*graph_, config, nullptr, pool_.get()));
    partition_ = std::move(built);
  }
  return &partition_.value();
}

EngineStats QueryEngine::stats() const {
  // Budget evictions happen inside the cache, on admission.
  const uint64_t budget_evicted = cache_.stats().evicted;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  EngineStats out = stats_;
  out.cache_evicted += budget_evicted;
  return out;
}

}  // namespace qgp
