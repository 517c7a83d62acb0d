#ifndef QGP_CORE_ENUM_MATCHER_H_
#define QGP_CORE_ENUM_MATCHER_H_

#include <span>

#include "common/result.h"
#include "core/candidate_cache.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

/// The Enum baseline of §7: a conventional subgraph-isomorphism engine
/// ([35]-style, built on the same Fig. 4 skeleton as QMatch) that first
/// enumerates ALL matches of the stratified pattern and only then
/// verifies counting quantifiers. Negated edges are handled by fully
/// re-enumerating each positified pattern Π(Q⁺ᵉ).
///
/// Enum deliberately skips QMatch's quantifier-aware machinery (upper
/// bound pruning, early-stopped counting, incremental negation), which is
/// exactly the contrast Figures 8(a), 8(h)–8(k) measure.
class EnumMatcher {
 public:
  /// Full QGP evaluation: Π(Q) minus each re-enumerated Π(Q⁺ᵉ),
  /// optionally restricted to `focus_subset` (the PEnum per-fragment and
  /// shard-engine entry point; empty span = all candidates). `cache`
  /// (optional, constructed for `g`) interns the plain label/degree
  /// candidate sets across Π(Q), every positified Π(Q⁺ᵉ), and — when the
  /// QueryEngine shares one cache across calls — across whole queries;
  /// when null, an evaluation-local pool still shares them between the
  /// positified patterns.
  static Result<AnswerSet> Evaluate(
      const Pattern& pattern, const Graph& g, const MatchOptions& options = {},
      MatchStats* stats = nullptr, CandidateCache* cache = nullptr,
      std::span<const VertexId> focus_subset = {});

  /// Positive-pattern evaluation, optionally restricted to a focus subset.
  /// Empty span = all candidates. `cache` (optional, constructed for `g`)
  /// interns the plain label/degree candidate sets this baseline builds.
  static Result<AnswerSet> EvaluatePositive(
      const Pattern& positive, const Graph& g, const MatchOptions& options,
      MatchStats* stats, std::span<const VertexId> focus_subset = {},
      CandidateCache* cache = nullptr);
};

}  // namespace qgp

#endif  // QGP_CORE_ENUM_MATCHER_H_
