#ifndef QGP_CORE_QMATCH_H_
#define QGP_CORE_QMATCH_H_

#include <span>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_space.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

struct GraphDeltaSummary;

/// Evaluation artifacts that make a query repairable after a graph
/// delta: the candidate space DMatch built for Π(Q). QueryEngine stores
/// them per positive query and feeds them back through
/// QMatch::EvaluateRepaired when the same query returns on a mutated
/// graph.
struct QMatchArtifacts {
  CandidateSpace pi_space;
};

/// QMatch (Fig. 5, §4): the paper's quantified matching algorithm.
///
///   1. Π(Q)(xo, G) is computed by DMatch (dynamic candidate pruning,
///      lazy counter verification, potential ordering).
///   2. Each negated edge e is positified and Π(Q⁺ᵉ)(xo, G) evaluated —
///      incrementally via IncQMatch over the cached Π(Q) artifacts when
///      options.use_incremental_negation is set (QMatch), or from scratch
///      (the QMatchn baseline of §7) when it is not.
///   3. Q(xo, G) = Π(Q)(xo, G) \ ∪e Π(Q⁺ᵉ)(xo, G).
///
/// Passing a ThreadPool parallelizes focus-candidate verification across
/// its workers (the paper's mQMatch intra-fragment parallelism): focus
/// verifications are independent, so this is a plain parallel map. The
/// same pool also parallelizes the candidate-space Build phase of Π(Q)
/// and of every positified Π(Q⁺ᵉ) — bit-identical to the serial build.
///
/// Passing a CandidateCache (constructed for `g`) interns label/degree
/// candidate sets across those builds — and across QMatch calls that
/// share the cache, which is how PQMatch workers reuse per-fragment
/// filters instead of rebuilding them. When no cache is given, each
/// evaluation interns within itself (Π(Q) and the positified patterns
/// still share).
class QMatch {
 public:
  /// Computes Q(xo, G). `artifacts` (optional) receives the Π(Q)
  /// candidate space — capturing it changes neither answers nor stats.
  static Result<AnswerSet> Evaluate(const Pattern& pattern, const Graph& g,
                                    const MatchOptions& options = {},
                                    MatchStats* stats = nullptr,
                                    ThreadPool* pool = nullptr,
                                    CandidateCache* cache = nullptr,
                                    QMatchArtifacts* artifacts = nullptr);

  /// Incrementally re-evaluates a POSITIVE pattern after a graph delta,
  /// given the previous evaluation's artifacts against the pre-delta
  /// graph. Answers are identical to a fresh Evaluate on the current
  /// graph; only the work differs:
  ///
  ///  1. The candidate space is repaired, not rebuilt
  ///     (CandidateSpace::Repair — exact by the fixpoint-uniqueness
  ///     argument documented there).
  ///  2. A focus verdict is a pure function of the focus's radius-hop
  ///     neighborhood over pattern-labeled edges plus the candidate
  ///     memberships inside it, so only foci within radius hops of a
  ///     touched vertex or a candidacy change can flip. Cached answers
  ///     outside that affected region are kept; inside it, good focus
  ///     candidates are re-verified from scratch — the same
  ///     keep-or-reverify discipline IncQMatch applies to cached
  ///     answers under ΔE, except that warm failed pairs are
  ///     NOT transferred (the graph changed underneath them, so
  ///     unlike the same-graph ΔE case they are not sound to reuse).
  ///     Re-verified foci are counted in stats->inc_candidates_checked.
  ///
  /// When the affected region outgrows half the graph the repair
  /// degenerates to verifying every focus candidate (`*fell_back` set);
  /// the repaired space is still reused, and answers stay exact.
  ///
  /// Negated patterns are rejected: Q(xo,G) subtracts every positified
  /// Π(Q⁺ᵉ), and a delta can grow those subtrahends anywhere, so
  /// nothing short of re-evaluating them is sound.
  static Result<AnswerSet> EvaluateRepaired(
      const Pattern& pattern, const Graph& g, const MatchOptions& options,
      const CandidateSpace& previous_space, const AnswerSet& previous_answers,
      const GraphDeltaSummary& delta, MatchStats* stats,
      ThreadPool* pool = nullptr, CandidateCache* cache = nullptr,
      QMatchArtifacts* artifacts = nullptr, bool* fell_back = nullptr);

  /// Same, restricted to an explicit focus-candidate subset — PQMatch's
  /// per-fragment entry point (fragments own disjoint candidate sets).
  /// Every pass, each Π(Q⁺ᵉ) pass included, verifies only the focus
  /// candidates inside the subset.
  static Result<AnswerSet> EvaluateSubset(
      const Pattern& pattern, const Graph& g,
      std::span<const VertexId> focus_subset, const MatchOptions& options,
      MatchStats* stats, ThreadPool* pool = nullptr,
      CandidateCache* cache = nullptr);
};

}  // namespace qgp

#endif  // QGP_CORE_QMATCH_H_
