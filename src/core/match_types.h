#ifndef QGP_CORE_MATCH_TYPES_H_
#define QGP_CORE_MATCH_TYPES_H_

/// \file
/// The types every matcher speaks: answer sets, the shared MatchOptions
/// knobs, and the MatchStats work counters whose cross-implementation
/// identity the differential suites assert.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/field_list.h"
#include "graph/types.h"

namespace qgp {

/// Query answer Q(xo, G): the sorted, duplicate-free vertex set matching
/// the focus.
using AnswerSet = std::vector<VertexId>;

/// Knobs shared by the matchers. Defaults reproduce the full QMatch of
/// §4; the ablation benches toggle individual strategies.
struct MatchOptions {
  /// Dual-simulation prefilter on candidate sets (Lemma 13 / [21]).
  bool use_simulation = true;
  /// Quantifier upper-bound pruning of candidates (§4.1, Appendix B).
  bool use_quantifier_pruning = true;
  /// Potential-score ordering of children during search (Appendix B).
  bool use_potential_ordering = true;
  /// Stop counting a quantified edge's children once the verdict is
  /// settled in either direction: a monotone (>=) threshold is met, an
  /// exact (=) one is overshot, or too many children have proven
  /// witness-free for the threshold to be reached (§4.1 upper bound).
  /// Answers never depend on it; false counts every child.
  bool early_stop_counting = true;
  /// Process negated edges incrementally (IncQMatch, §4.2). When false,
  /// each Π(Q⁺ᵉ) is recomputed from scratch (the QMatchn baseline).
  bool use_incremental_negation = true;
  /// The §2.2 path restriction constant l.
  int max_quantified_per_path = 2;
  /// Safety cap on enumerated isomorphisms for the enumeration-based
  /// matchers (0 = unlimited). Exceeding it is an Internal error, never a
  /// silently-wrong answer.
  uint64_t max_isomorphisms = 0;
  /// Per-focus neighborhood ball size cap (hub-explosion guard); when a
  /// ball exceeds it, DMatch falls back to global candidate sets, which
  /// is equally correct. 0 = auto: max(4096, |V| / 8).
  size_t ball_limit = 0;
  /// Chunk grain for the work-stealing focus map (foci per stealable
  /// task). 0 = auto (≈ |subset| / (threads · 8), at least 1). The
  /// forced-steal stress tests pin this to 1 so every focus is its own
  /// stealable task; answers never depend on it.
  size_t scheduler_grain = 0;
  /// Cooperative cancellation (common/cancellation.h). When set, the
  /// matchers and CandidateSpace::Build/Repair poll it at coarse
  /// granularity — per focus, per fixpoint round, per fragment — and
  /// unwind with kDeadlineExceeded/kCancelled, leaving caches and
  /// scratch state intact. Never part of any cache key (like
  /// scheduler_grain, it cannot change an answer). The token must
  /// outlive the evaluation. nullptr = never cancelled (no overhead).
  const CancelToken* cancel = nullptr;
};

/// Instrumentation counters. Verification work (the paper's cost measure
/// for incremental optimality, §4.2) is `search_extensions`.
struct MatchStats {
  uint64_t isomorphisms_enumerated = 0;  ///< complete embeddings seen
  uint64_t witness_searches = 0;         ///< pinned-pair searches run
  uint64_t search_extensions = 0;        ///< candidate extensions tried
  uint64_t candidates_initial = 0;       ///< sum of |C(u)| before pruning
  uint64_t candidates_pruned = 0;        ///< removed by filters
  uint64_t focus_candidates_checked = 0; ///< DMatch outer loop size
  uint64_t inc_candidates_checked = 0;   ///< IncQMatch re-verifications
  uint64_t balls_built = 0;              ///< per-focus neighborhoods built

  /// Work-stealing scheduler telemetry (tasks run / tasks that were
  /// stolen from another worker's deque). Unlike every counter above,
  /// these describe the SCHEDULE, not the work: they may vary run to run
  /// and are excluded from the determinism contract the differential
  /// suites assert.
  uint64_t scheduler_tasks = 0;
  uint64_t scheduler_steals = 0;

  /// The counter list (common/field_list.h) in bench-row order, the
  /// scheduler counters flagged as schedule telemetry.
  static constexpr auto Fields() {
    using F = Field<MatchStats>;
    return std::array{
        F{"isomorphisms_enumerated", &MatchStats::isomorphisms_enumerated},
        F{"witness_searches", &MatchStats::witness_searches},
        F{"search_extensions", &MatchStats::search_extensions},
        F{"candidates_initial", &MatchStats::candidates_initial},
        F{"candidates_pruned", &MatchStats::candidates_pruned},
        F{"focus_candidates_checked", &MatchStats::focus_candidates_checked},
        F{"inc_candidates_checked", &MatchStats::inc_candidates_checked},
        F{"balls_built", &MatchStats::balls_built},
        F{"scheduler_tasks", &MatchStats::scheduler_tasks, true},
        F{"scheduler_steals", &MatchStats::scheduler_steals, true},
    };
  }

  /// Accumulates `other` into this (for cross-fragment aggregation).
  void Add(const MatchStats& other);

  /// "name=value" per counter, space-separated.
  std::string ToString() const;
};

static_assert(sizeof(MatchStats) == FieldBytes(MatchStats::Fields()),
              "every MatchStats member needs an entry in Fields()");

/// Sorts and deduplicates in place, yielding a canonical AnswerSet.
void Canonicalize(AnswerSet& answers);

/// Set algebra on canonical AnswerSets.
AnswerSet SetIntersection(const AnswerSet& a, const AnswerSet& b);
AnswerSet SetDifference(const AnswerSet& a, const AnswerSet& b);

}  // namespace qgp

#endif  // QGP_CORE_MATCH_TYPES_H_
