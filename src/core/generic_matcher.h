#ifndef QGP_CORE_GENERIC_MATCHER_H_
#define QGP_CORE_GENERIC_MATCHER_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/vertex_set.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

/// The generic subgraph-isomorphism search of Fig. 4 ([27]'s skeleton):
/// SelectNext picks the next pattern node (connectivity-first, smallest
/// candidate set), IsExtend checks label/edge consistency and injectivity,
/// and the recursion backtracks through all embeddings.
///
/// One engine serves every matcher in the library:
///  * Enum / NaiveMatcher-style full enumeration (callback per embedding),
///  * DMatch witness searches (pins + stop at first embedding),
///  * DMatch answer searches (per-node `accept` predicate = quantifier
///    goodness, evaluated lazily),
///  * potential-score child ordering (Appendix B selection rule).
///
/// Instances are reusable: Enumerate/FindAny may be called any number of
/// times (DMatch runs every witness search of a focus through one
/// matcher). The injectivity set and per-depth frontier buffers are
/// retained across calls, so per-call setup costs O(|Q| + work done), not
/// O(|V|).
///
/// Quantifiers on the pattern are ignored here — callers pass stratified
/// topology plus whatever candidate sets encode their pruning.
class GenericMatcher {
 public:
  /// The matcher's |V|-sized working buffers (injectivity set, per-depth
  /// frontiers). A caller that builds matchers in a loop (DMatch: one per
  /// focus candidate) passes the same arena to each so the buffers are
  /// allocated once per thread, not once per focus.
  struct Scratch {
    SparseBitset used;
    std::vector<std::vector<VertexId>> frontier_bufs;
    /// (score, vertex) pairs of the frontier being ordered; shared by all
    /// depths because a frontier is reordered before the recursion.
    std::vector<std::pair<double, VertexId>> scored;
  };

  /// Return false to stop the enumeration early.
  using Callback = std::function<bool(const std::vector<VertexId>&)>;
  /// Extension predicate: may (u, v) appear in an embedding? Evaluated
  /// after topological consistency, so expensive predicates run rarely.
  using Accept = std::function<bool(PatternNodeId, VertexId)>;
  /// Child-ordering score: higher is tried first.
  using Score = std::function<double(PatternNodeId, VertexId)>;

  struct SearchOptions {
    /// Pre-assigned pattern nodes (e.g. the focus, witness pins).
    std::span<const std::pair<PatternNodeId, VertexId>> pins;
    const Accept* accept = nullptr;
    const Score* score = nullptr;
    /// Pattern nodes whose frontiers `score` orders, as one flag per
    /// node; empty scores every node. An unscored frontier is tried in
    /// ascending vertex order, and `score` is never called for its node
    /// (DMatch leaves out the nodes whose score is identically 0).
    std::span<const char> scored_nodes;
    MatchStats* stats = nullptr;
    /// Stop after this many embeddings (0 = unlimited).
    uint64_t max_isomorphisms = 0;
  };

  /// `candidates[u]` is u's candidate set as a bitset view: Extend keeps
  /// an anchor's adjacency entries whose endpoint passes the view's bit
  /// test, decodes the view when u has no anchor, and pins test their
  /// vertex against it. The views — and the words and runs they point
  /// into — and `scratch`, when given, must stay alive and unmoved while
  /// the matcher is in use.
  GenericMatcher(const Pattern& pattern, const Graph& g,
                 std::span<const BitsetView> candidates,
                 Scratch* scratch = nullptr);

  /// Enumerates embeddings; invokes `cb` for each complete assignment
  /// (indexed by pattern node). Returns true if the enumeration ran to
  /// completion, false if it hit max_isomorphisms.
  bool Enumerate(const SearchOptions& options, const Callback& cb);

  /// Convenience: is there at least one embedding?
  bool FindAny(const SearchOptions& options,
               std::vector<VertexId>* found = nullptr);

 private:
  struct Step {
    PatternNodeId u = kInvalidPatternId;
    // Anchor: an edge between u and an earlier-assigned node, used to
    // iterate adjacency instead of the full candidate list.
    PatternEdgeId anchor_edge = kInvalidPatternId;
    bool anchor_outgoing = false;  // true: anchor -> u is (assigned -> u)
  };

  std::vector<Step> PlanOrder(
      std::span<const std::pair<PatternNodeId, VertexId>> pins) const;
  // Fills checks_/check_begin_ for plan_ (pinned prefix already removed).
  void PlanChecks();

  bool Consistent(PatternNodeId u, VertexId v) const;
  bool Extend(size_t depth, const SearchOptions& options, const Callback& cb);

  const Pattern& q_;
  const Graph& g_;
  std::span<const BitsetView> candidates_;

  // Search state (single-threaded per instance), reused across calls.
  std::vector<Step> plan_;
  // Step d's checks are checks_[check_begin_[d], check_begin_[d + 1]):
  // its edges to nodes placed before it (pins included) and its
  // self-loops, minus the anchor edge, which holds by construction.
  std::vector<PatternEdgeId> checks_;
  std::vector<size_t> check_begin_;
  std::vector<size_t> placed_at_;  // PlanChecks scratch: 0 = pinned
  std::vector<VertexId> assignment_;
  Scratch own_scratch_;          // used when no external arena was given
  Scratch* scratch_ = nullptr;   // &own_scratch_ or the caller's arena
  uint64_t found_ = 0;
  bool stopped_ = false;
  bool overflow_ = false;
};

}  // namespace qgp

#endif  // QGP_CORE_GENERIC_MATCHER_H_
