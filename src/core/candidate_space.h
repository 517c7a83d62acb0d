#ifndef QGP_CORE_CANDIDATE_SPACE_H_
#define QGP_CORE_CANDIDATE_SPACE_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/vertex_set.h"
#include "core/candidate_cache.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

class ThreadPool;
struct GraphDeltaSummary;

/// Metadata a CandidateSpace::Repair call reports back to the engine.
struct CandidateRepairInfo {
  /// The gain region outgrew the budget and Repair degenerated to a full
  /// Build (result still exact).
  bool fell_back = false;
  /// Vertices explored by the gain-region sweep.
  size_t gain_region = 0;
  /// Vertices whose stratified candidacy changed for at least one pattern
  /// node (sorted, unique). Together with the delta's touched vertices
  /// this seeds the engine's affected-region re-verification.
  std::vector<VertexId> changed;
};

/// Global candidate sets for one positive pattern against one graph,
/// maintaining the distinction the §2.2 semantics forces
/// (docs/ARCHITECTURE.md, "Semantics readings"):
///
///  * `stratified` sets Cπ(u): vertices that may participate in ANY
///    isomorphism of Qπ — label filter plus (optionally) dual simulation.
///    Counting |Me(vx, v, Q)| must use these, because a counted child
///    need not satisfy its own quantifiers.
///
///  * `good` sets C(u) ⊆ Cπ(u): vertices that may additionally appear as
///    h0(u) in an ANSWER isomorphism — those whose quantifier upper bound
///    U(v,e) = |Me(v) ∩ Cπ(u')| can still reach the threshold of every
///    quantified out-edge e of u (the §4.1 / Appendix-B pruning rule,
///    with the ratio threshold evaluated per vertex). Goodness is a
///    one-shot filter over fixed Cπ — it must NOT cascade, or counts
///    would be under-estimated and answers lost.
///
/// Sets are stored as shared, immutable CandidateSet handles rather than
/// owned vectors: pattern nodes whose label/degree filters coincide share
/// one allocation (via the CandidateCache intern pool), a node's good set
/// aliases its stratified set whenever no quantifier pruning applies, and
/// handing sets to matchers or across threads is a refcount bump. The
/// accessors below are the stable API — callers see sorted spans and O(1)
/// membership tests regardless of which build path produced the set.
class CandidateSpace {
 public:
  /// Builds both set families. `pattern` must be positive.
  ///
  /// `pool` (optional) parallelizes construction: the dual-simulation
  /// rounds, the per-key label/degree filters, the membership bitsets and
  /// the good-set upper-bound checks all fan out across its workers. The
  /// result is bit-identical to the serial build at any thread count —
  /// parallel phases write disjoint slots against frozen inputs, and all
  /// cross-phase reductions (stats, compaction) stay sequential.
  ///
  /// `cache` (optional) interns label/degree sets across builds on the
  /// same graph; it must have been constructed for `g`.
  static Result<CandidateSpace> Build(const Pattern& pattern, const Graph& g,
                                      const MatchOptions& options,
                                      MatchStats* stats,
                                      ThreadPool* pool = nullptr,
                                      CandidateCache* cache = nullptr);

  /// Incrementally repairs `previous` — the space Build produced for the
  /// SAME pattern and options against the pre-delta graph — after `delta`
  /// was applied to `g`. Produces sets identical to a fresh Build (both
  /// converge to the same unique dual-simulation fixpoint, and the good
  /// filter is a pure function of the stratified sets), so `stats`
  /// contributions match a rebuild exactly; only the work differs:
  ///
  ///  * Deletions only shrink candidacy, so the old sets themselves are
  ///    valid over-approximations and re-seed the fixpoint directly
  ///    (filtered to still-label-valid members, which also drops
  ///    tombstones).
  ///  * Insertions can cascade candidacy gains, but any gain is connected
  ///    to an inserted edge/vertex through pattern-relevant-labeled edges
  ///    (else the greatest fixpoint of the old graph would already have
  ///    contained it), so a BFS over those labels from the delta's gain
  ///    sites bounds the gain region. If that region outgrows a budget
  ///    (~|V|/4), repair degenerates to a full Build — exact either way;
  ///    `info->fell_back` reports it.
  ///
  /// Patterns with no relevant overlap with the delta reuse every set of
  /// `previous` unchanged (shared handles, zero recompute).
  static Result<CandidateSpace> Repair(const CandidateSpace& previous,
                                       const Pattern& pattern, const Graph& g,
                                       const GraphDeltaSummary& delta,
                                       const MatchOptions& options,
                                       MatchStats* stats,
                                       ThreadPool* pool = nullptr,
                                       CandidateCache* cache = nullptr,
                                       CandidateRepairInfo* info = nullptr);

  /// Cπ(u), sorted ascending.
  std::span<const VertexId> stratified(PatternNodeId u) const {
    return stratified_[u]->members;
  }

  /// Good candidates for u, sorted ascending.
  std::span<const VertexId> good(PatternNodeId u) const {
    return good_[u]->members;
  }

  /// Shared handles, for callers that want to hold a set beyond this
  /// CandidateSpace's lifetime or assert interning (tests, caches).
  const CandidateSetRef& stratified_set(PatternNodeId u) const {
    return stratified_[u];
  }
  const CandidateSetRef& good_set(PatternNodeId u) const { return good_[u]; }

  /// O(1) membership tests.
  bool InStratified(PatternNodeId u, VertexId v) const {
    return stratified_[u]->bits.Test(v);
  }
  bool InGood(PatternNodeId u, VertexId v) const {
    return good_[u]->bits.Test(v);
  }

  /// Cπ(u) as a matcher view. With `ball_words` (a ball's membership
  /// words, e.g. MultiBallScratch::BallWords) and `sorted_ball` (its
  /// members, ascending), the view is the per-focus local set
  /// Lπ(u) = Cπ(u) ∩ ball,
  /// read through Cπ(u)'s bitset with the ball's words as mask; nothing is
  /// decoded, and its size costs O(min(|ball|, |Cπ(u)|, |V| / 64))
  /// (MaskedView). With an empty `ball_words`, the view is Cπ(u)
  /// unmasked. The view points into this space and into the ball's
  /// storage.
  BitsetView StratifiedView(PatternNodeId u,
                            std::span<const VertexId> sorted_ball = {},
                            std::span<const uint64_t> ball_words = {}) const;

  size_t num_pattern_nodes() const { return stratified_.size(); }

 private:
  std::vector<CandidateSetRef> stratified_;
  std::vector<CandidateSetRef> good_;  // good_[u] may alias stratified_[u]
};

}  // namespace qgp

#endif  // QGP_CORE_CANDIDATE_SPACE_H_
