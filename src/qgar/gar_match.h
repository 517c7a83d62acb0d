#ifndef QGP_QGAR_GAR_MATCH_H_
#define QGP_QGAR_GAR_MATCH_H_

#include "common/result.h"
#include "core/match_types.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "parallel/pqmatch.h"
#include "qgar/qgar.h"

namespace qgp {

/// Outcome of quantified entity identification (§6, Corollary 11).
struct GarMatchResult {
  AnswerSet q1_answers;  // Q1(xo, G)
  AnswerSet q2_answers;  // Q2(xo, G)
  AnswerSet rule_matches;  // R(xo, G) = Q1 ∩ Q2
  AnswerSet entities;      // R(xo, η, G): rule_matches if conf >= η else ∅
  size_t support = 0;
  double confidence = 0.0;
};

/// garMatch: sequential QEI via two QMatch runs + the LCWA metrics.
Result<GarMatchResult> GarMatch(const Qgar& rule, const Graph& g, double eta,
                                const MatchOptions& options = {},
                                MatchStats* stats = nullptr);

/// garMatch through a QueryEngine: both patterns are evaluated as engine
/// queries against engine.graph(), so the antecedent, the consequent,
/// and every other rule sharing the engine reuse one interned candidate
/// pool and one worker pool (rule mining evaluates hundreds of
/// structurally overlapping patterns — the miner's hot path). Answers
/// and metrics are identical to the per-graph overload. `algo` selects
/// the engine matcher per query; EngineAlgo::kAuto lets the engine
/// choose.
Result<GarMatchResult> GarMatch(const Qgar& rule, QueryEngine& engine,
                                double eta, const MatchOptions& options = {},
                                MatchStats* stats = nullptr,
                                EngineAlgo algo = EngineAlgo::kQMatch);

/// dgarMatch: parallel QEI over a d-hop preserving partition (both
/// patterns must have radius <= partition.d). Per Corollary 11 each
/// worker evaluates Q1 and Q2 locally; the coordinator assembles answer
/// sets, Xo and the confidence.
Result<GarMatchResult> DGarMatch(const Qgar& rule, const Graph& g,
                                 const Partition& partition, double eta,
                                 const ParallelConfig& config = {});

}  // namespace qgp

#endif  // QGP_QGAR_GAR_MATCH_H_
