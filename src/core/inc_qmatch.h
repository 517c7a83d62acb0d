#ifndef QGP_CORE_INC_QMATCH_H_
#define QGP_CORE_INC_QMATCH_H_

#include "core/dmatch.h"
#include "core/match_types.h"

namespace qgp {

/// IncQMatch (§4.2): incremental evaluation of a positified pattern
/// Π(Q⁺ᵉ) = Π(Q) ⊕ ΔE against the cached results of Π(Q).
///
/// Incrementality, relative to recomputing from scratch (QMatchn):
///  1. Only cached answers of Π(Q) are re-verified — the set difference
///     Q(xo,G) = Π(Q)(xo,G) \ ∪ Π(Q⁺ᵉ)(xo,G) never needs membership of
///     Π(Q⁺ᵉ) outside Π(Q)(xo,G).
///  2. Failed witness pairs transfer soundly (a bigger pattern has fewer
///     embeddings), so verification skips work already proven futile —
///     this is the AFF-bounded behaviour of Proposition 6: only pairs
///     touching ΔE can flip, and only they are re-searched.
///
/// The answers are re-verified in VerifyBatch batches, sharing ball BFS
/// traversals as cold verification does. `evaluator` must be built over
/// Π(Q⁺ᵉ) with edge_to_original mappings into the ORIGINAL QGP (the same
/// id space the caches use).
AnswerSet IncQMatchEvaluate(const PositiveEvaluator& evaluator,
                            const AnswerSet& cached_answers,
                            const FocusCaches& caches, MatchStats* stats);

}  // namespace qgp

#endif  // QGP_CORE_INC_QMATCH_H_
