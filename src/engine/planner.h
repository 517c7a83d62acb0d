#ifndef QGP_ENGINE_PLANNER_H_
#define QGP_ENGINE_PLANNER_H_

/// \file
/// The cost-based query planner behind `algo=auto`. Given a pattern and
/// the submitted MatchOptions, the planner picks which matcher evaluates
/// the query (qmatch / enum / pqmatch / penum) and fills the
/// scheduler knobs from cheap, deterministic statistics:
///
///  * graph size and degree profile (O(1) off the CSR),
///  * the focus label's candidate cardinality, read through the
///    interning CandidateCache — the label/degree sets the matchers
///    compute anyway double as free cardinality estimates, and probing
///    them warms exactly the set the chosen evaluation starts from,
///  * pattern shape: radius, negated-edge count, quantifier count,
///  * partition availability (pattern radius vs. the engine's DPar d).
///
/// Decisions are cached per pattern *family*: the cache key is the
/// canonical pattern structure with quantifier parameters stripped
/// (counts, percents and comparison ops removed; only the per-edge
/// class — existential / counting / negated — survives). Two patterns
/// differing only in quantifier values, exactly what the QGAR miner's
/// enlargement loop emits, share one plan — and, through the
/// CandidateCache the plan probe warms, one seeded dual-simulation
/// fixpoint. Entries are stamped with the graph version and swept by
/// QueryEngine::ApplyDelta (a plan chosen from pre-delta cardinalities
/// is stale), mirroring the CandidateCache / result-cache invalidation.
///
/// Determinism: a plan is a pure function of (graph content, pattern
/// structure, submitted options, configuration). Warm candidate sets
/// are equal by value to freshly computed ones, so the decision never
/// depends on cache temperature — an auto query answers byte-identically
/// to the same algo chosen manually, at any thread count (the planner
/// differential suite locks this down).
///
/// Thread safety: none. The QueryEngine owns one Planner and calls it
/// only under its admission lock, like the repair store.

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "core/candidate_cache.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

enum class EngineAlgo;  // engine/query_engine.h

/// Cost-model cutoffs. Exposed as engine options so benches and tests
/// can pin decision boundaries exactly.
struct PlannerConfig {
  /// Focus-candidate cardinality at or below which enumerate-then-verify
  /// wins for conventional patterns: with a handful of foci there is no
  /// dual-simulation fixpoint worth amortizing.
  size_t enum_focus_cutoff = 8;
  /// Graph size (vertices) at or above which fragment-parallel
  /// evaluation over the DPar partition pays for its scatter/gather.
  size_t partition_vertex_cutoff = 200000;
};

/// One planning decision: the matcher that should run and the submitted
/// options with the planner's fills applied. `options` only ever gains
/// scheduler fills — answer-relevant caps and pruning toggles pass
/// through untouched, so a plan can change the schedule and the work
/// profile but never the answer.
struct PlanDecision {
  EngineAlgo algo;
  MatchOptions options;
  /// True when the family was served from the plan cache.
  bool cache_hit = false;
};

class Planner {
 public:
  /// Per-call inputs the engine snapshots under its admission lock.
  struct Context {
    const Graph* graph = nullptr;
    /// Interned cardinality estimates; nullptr for cache-bypassing
    /// specs (share_cache = false), which also bypass the plan cache —
    /// their estimate is computed fresh and their plan is not stored.
    CandidateCache* cache = nullptr;
    uint64_t graph_version = 0;
    size_t num_threads = 1;
    size_t partition_fragments = 0;
    int partition_d = 0;
  };

  explicit Planner(const PlannerConfig& config) : config_(config) {}
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Plans one query. Probes the plan cache first (version-checked);
  /// on a miss, runs the cost model and stores the family's plan.
  PlanDecision Plan(const Pattern& q, const MatchOptions& submitted,
                    const Context& ctx);

  /// Drops exactly the entries stamped with a version other than
  /// `current_version`; returns how many. Called by ApplyDelta.
  size_t EvictStale(uint64_t current_version);

  /// Drops the cached plan for `q`'s family, if any; true when an entry
  /// was erased. The engine calls this when a cancelled or timed-out
  /// query had just built its plan — the plan itself would still be
  /// valid, but the no-cache-poisoning invariant says a cancelled run
  /// admits nothing, so the next query of the family re-plans (and
  /// reports plan_cache_hit = false, which the tests observe).
  bool Forget(const Pattern& q);

  /// Cached families.
  size_t size() const { return plans_.size(); }

  /// The canonical family key: node labels, edge topology + labels,
  /// focus, per-edge quantifier class; quantifier parameters stripped.
  /// Exposed for tests asserting which patterns share a plan.
  static std::string FamilyKey(const Pattern& q);

 private:
  struct CachedPlan {
    EngineAlgo algo;
    size_t scheduler_grain = 0;
    uint64_t version = 0;
    std::list<std::string>::iterator lru;
  };

  PlannerConfig config_;
  std::unordered_map<std::string, CachedPlan> plans_;
  std::list<std::string> lru_;  // front = most recently used
};

}  // namespace qgp

#endif  // QGP_ENGINE_PLANNER_H_
