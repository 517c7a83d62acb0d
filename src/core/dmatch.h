#ifndef QGP_CORE_DMATCH_H_
#define QGP_CORE_DMATCH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "core/candidate_space.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"
#include "graph/graph_algorithms.h"

namespace qgp {

/// Per-focus artifacts cached by DMatch for one verified answer, consumed
/// by IncQMatch (§4.2). Failed witness pairs are keyed by the ORIGINAL
/// pattern's edge ids so they can be transferred to Π(Q⁺ᵉ): adding
/// constraints can only remove embeddings, so a pair with no witness in
/// Π(Q) has none in Π(Q⁺ᵉ) either.
struct FocusCache {
  /// failed[e_orig] = set of (v << 32 | v') pairs proven witness-free.
  std::vector<std::unordered_set<uint64_t>> failed_by_original_edge;
};

/// Focus caches by focus vertex: the warm state IncQMatch re-verifies
/// from.
using FocusCaches = std::unordered_map<VertexId, FocusCache>;

/// Optional input to PositiveEvaluator::Create: repair the candidate
/// space incrementally from a previous evaluator's space instead of
/// building it from scratch. `previous` must be the space of an
/// evaluator Create built for the SAME pattern and options against the
/// pre-delta graph, and `delta` the (possibly merged) summary of every
/// ApplyDelta between the two graph states. The result is identical to
/// a fresh build (CandidateSpace::Repair's contract); `info` (optional)
/// receives the repair metadata the engine's answer-repair path needs.
struct SpaceRepairHint {
  const CandidateSpace* previous = nullptr;
  const GraphDeltaSummary* delta = nullptr;
  CandidateRepairInfo* info = nullptr;
};

/// DMatch (§4.1): evaluates a POSITIVE QGP. The published algorithm
/// interleaves quantifier counting with the Fig. 4 search; this
/// implementation factors the same strategy into per-focus phases (see
/// "Semantics readings" in docs/ARCHITECTURE.md): candidate sets read
/// through the focus ball's membership words (views, never decoded per
/// focus), each pattern node masked by the ball of its own hop distance
/// from the focus, lazily-counted quantifier "goodness" with memoized
/// pinned witness searches, upper-bound pruning of candidates, counting
/// that stops once its verdict is settled (threshold met, or out of
/// reach of the children not yet proven witness-free), and
/// potential-score child ordering (Appendix B).
///
/// The evaluator is immutable after Create(); verification is const and
/// thread-safe, which EvaluateSubset exploits for mQMatch's
/// intra-fragment parallelism.
class PositiveEvaluator {
 public:
  /// Builds candidate sets for `positive` (which must be positive and
  /// valid). `edge_to_original` maps this pattern's edges to the ids of
  /// the original QGP it was derived from (Π / Π(Q⁺ᵉ) mappings); pass
  /// nullptr for identity. `num_original_edges` sizes the failed-pair
  /// cache (use the original QGP's edge count). Balls are traversed
  /// over `positive`'s own edge labels. `pool` (optional) parallelizes candidate-space construction across
  /// its workers (bit-identical to the serial build); `cache` (optional)
  /// interns label/degree candidate sets across builds on the same graph.
  /// `repair` (optional) swaps the from-scratch candidate-space build
  /// for an incremental CandidateSpace::Repair from a prior evaluator's
  /// space — same resulting sets, less work after a small graph delta.
  /// `stats` (optional) receives the build's candidates_initial and
  /// candidates_pruned.
  static Result<PositiveEvaluator> Create(
      Pattern positive, const Graph& g, MatchOptions options,
      const std::vector<PatternEdgeId>* edge_to_original = nullptr,
      size_t num_original_edges = 0, ThreadPool* pool = nullptr, CandidateCache* cache = nullptr,
      const SpaceRepairHint* repair = nullptr, MatchStats* stats = nullptr);

  /// Good focus candidates (the outer-loop domain of Fig. 5). The span
  /// views the evaluator's shared candidate set and stays valid for the
  /// evaluator's lifetime.
  std::span<const VertexId> FocusCandidates() const {
    return cs_.good(pattern_.focus());
  }

  /// Verifies one focus candidate: true iff vx ∈ P(xo, G). A
  /// VerifyBatch of one.
  bool VerifyFocus(VertexId vx, const FocusCaches* warm,
                   FocusCache* cache_out, MatchStats* stats) const;

  /// Widest batch VerifyBatch accepts: one bit of the shared BFS's
  /// per-vertex reach mask per member.
  static constexpr size_t kBatchWidth = kMaxBallSources;

  /// Verification of up to kBatchWidth focus candidates. The balls of
  /// all good members come out of one multi-source BFS
  /// (KHopBallsFiltered), one level per hop; each member then verifies
  /// on its own, so verdicts, artifacts and MatchStats equal those of
  /// VerifyFocus(foci[i], ...) for each i in order. `warm` (optional)
  /// seeds each member's failed-pair memo from its cache in a prior run
  /// on a sub-pattern (IncQMatch). `is_match[i]` receives member i's
  /// verdict; `caches_out` is empty or holds foci.size() slots.
  /// `cancel` (optional) is polled before member i whenever
  /// (poll_base + i) is a multiple of 16; a fired token stops the batch,
  /// leaving the remaining members "no match". Returns the number of
  /// members verified.
  size_t VerifyBatch(std::span<const VertexId> foci, const FocusCaches* warm,
                     std::span<char> is_match,
                     std::span<FocusCache> caches_out, MatchStats* stats,
                     const CancelToken* cancel = nullptr,
                     size_t poll_base = 0) const;

  /// The focus map, Fig. 5's outer loop: verifies `foci` and returns
  /// the members of P(xo, G) among them, canonical. DMatch runs it over
  /// FocusCandidates(); IncQMatch over Π(Q)'s answers against Π(Q⁺ᵉ)
  /// with `warm` holding their Π(Q) caches. `caches` (optional)
  /// receives the FocusCache of every answer. Foci are verified
  /// largest-degree-first in VerifyBatch chunks that `pool` (optional)
  /// steals; per-position results are merged in input order, so
  /// answers, caches and every counter but the scheduler telemetry are
  /// identical at any pool width. A fired options().cancel truncates
  /// the answer set, so callers must re-check it before trusting the
  /// result.
  AnswerSet EvaluateSubset(std::span<const VertexId> foci,
                           const FocusCaches* warm, FocusCaches* caches,
                           MatchStats* stats,
                           ThreadPool* pool = nullptr) const;

  const Pattern& pattern() const { return pattern_; }
  const CandidateSpace& candidate_space() const { return cs_; }
  int radius() const { return radius_; }
  /// The per-hop filter of every verification ball (radius() hops).
  const BallFilter& ball_filter() const { return ball_filter_; }
  const MatchOptions& options() const { return options_; }

 private:
  PositiveEvaluator() = default;

  Pattern pattern_;     // with quantifiers
  Pattern stratified_;  // topology used by searches
  const Graph* g_ = nullptr;
  MatchOptions options_;
  CandidateSpace cs_;
  int radius_ = 0;
  std::vector<PatternEdgeId> edge_to_original_;  // identity when underived
  size_t num_original_edges_ = 0;
  /// Out-edges with non-existential quantifiers, per pattern node.
  std::vector<std::vector<PatternEdgeId>> quantified_out_;
  /// 1 at the nodes with a quantified out-edge: the only nodes whose
  /// potential score can be nonzero.
  std::vector<char> scored_nodes_;
  /// Undirected hop distance of each pattern node from the focus: an
  /// embedding pinned at vx maps node u within hop_[u] hops of vx.
  std::vector<int> hop_;
  /// Per-hop ball traversal filter, from the pattern's step edges.
  BallFilter ball_filter_;
  size_t ball_limit_ = 0;
};

}  // namespace qgp

#endif  // QGP_CORE_DMATCH_H_
