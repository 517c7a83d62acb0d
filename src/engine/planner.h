#ifndef QGP_ENGINE_PLANNER_H_
#define QGP_ENGINE_PLANNER_H_

/// \file
/// The cost-based query planner behind `algo=auto`. Given a pattern, the
/// planner picks which matcher evaluates the query (qmatch / enum /
/// pqmatch / penum) from cheap, deterministic statistics:
///
///  * graph size (O(1) off the CSR),
///  * pattern shape: negated edges, counting quantifiers, radius,
///  * partition availability (pattern radius vs. the engine's DPar d),
///  * for positive conventional patterns only, the focus label's
///    candidate cardinality, read through the interning CandidateCache —
///    the label/degree set the chosen evaluation starts from anyway, so
///    probing it warms exactly what the matcher reads next.
///
/// Planning is a pure function, run afresh for every query: those reads
/// cost nothing next to the evaluation they decide about, so nothing is
/// remembered between queries and nothing needs invalidating after a
/// delta.
///
/// Determinism: a plan depends only on (graph content, pattern,
/// configuration). Interned candidate sets are equal by value to freshly
/// computed ones, so the decision never depends on cache temperature — an
/// auto query answers byte-identically to the same algo chosen manually,
/// at any thread count (the planner differential suite locks this down).

#include <cstddef>

#include "core/candidate_cache.h"
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

/// Per-call inputs the engine snapshots under its admission lock.
struct PlanContext {
  const Graph* graph = nullptr;
  /// Interned cardinality estimates; nullptr for cache-bypassing specs
  /// (share_cache = false), whose estimate is computed fresh.
  CandidateCache* cache = nullptr;
  size_t partition_fragments = 0;
  int partition_d = 0;
};

/// Picks the matcher for one query. Never returns EngineAlgo::kAuto.
/// The submitted MatchOptions pass to the chosen matcher untouched, so a
/// plan can change the work profile but never the answer.
EngineAlgo Plan(const Pattern& q, const PlannerConfig& config,
                const PlanContext& ctx);

}  // namespace qgp

#endif  // QGP_ENGINE_PLANNER_H_
