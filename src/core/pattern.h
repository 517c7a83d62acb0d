#ifndef QGP_CORE_PATTERN_H_
#define QGP_CORE_PATTERN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/quantifier.h"
#include "graph/label_dict.h"
#include "graph/types.h"

namespace qgp {

/// Index of a node / edge within a Pattern.
using PatternNodeId = uint32_t;
using PatternEdgeId = uint32_t;
inline constexpr uint32_t kInvalidPatternId = UINT32_MAX;

/// One pattern node: a required node label plus an optional variable name
/// used by the parser and for diagnostics ("xo", "z1", ...).
struct PatternNode {
  Label label = kInvalidLabel;
  std::string name;
};

/// One pattern edge with its counting quantifier f(e).
struct PatternEdge {
  PatternNodeId src = kInvalidPatternId;
  PatternNodeId dst = kInvalidPatternId;
  Label label = kInvalidLabel;
  Quantifier quantifier;  // defaults to existential (>= 1)
};

class Pattern;

/// A sub-pattern (Π(Q) or Π(Q⁺ᵉ)) with mappings back to the pattern it
/// was derived from, used by QMatch/IncQMatch to relate candidate caches.
struct SubPattern {
  Pattern* pattern_ptr = nullptr;  // unused; kept for ABI clarity
  /// The derived pattern itself.
  std::vector<PatternNodeId> node_to_original;  // new node -> original node
  std::vector<PatternNodeId> node_from_original;  // original -> new or kInvalidPatternId
  std::vector<PatternEdgeId> edge_to_original;  // new edge -> original edge
};

/// Quantified graph pattern Q(xo) = (VQ, EQ, LQ, f) (§2.2).
///
/// Node and edge labels are interned through the SAME LabelDict as the
/// data graph that will be queried (pass the graph's dict to the parser /
/// generator), so label equality is integer equality at match time.
class Pattern {
 public:
  Pattern() = default;

  /// Appends a node; returns its id. The first node added is the default
  /// focus until set_focus() is called.
  PatternNodeId AddNode(Label label, std::string name = "");

  /// Appends an edge. Endpoints must exist.
  Status AddEdge(PatternNodeId src, PatternNodeId dst, Label label,
                 Quantifier quantifier = Quantifier());

  /// Designates the query focus xo.
  Status set_focus(PatternNodeId node);
  PatternNodeId focus() const { return focus_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  const PatternNode& node(PatternNodeId u) const { return nodes_[u]; }
  const PatternEdge& edge(PatternEdgeId e) const { return edges_[e]; }

  /// Edge ids leaving / entering `u`.
  std::span<const PatternEdgeId> OutEdgeIds(PatternNodeId u) const {
    return out_edges_[u];
  }
  std::span<const PatternEdgeId> InEdgeIds(PatternNodeId u) const {
    return in_edges_[u];
  }

  /// Ids of negated edges E−Q.
  std::vector<PatternEdgeId> NegatedEdgeIds() const;

  /// True iff the pattern has no negated edge (§2.2 "positive").
  bool IsPositive() const { return NegatedEdgeIds().empty(); }

  /// True iff every quantifier is existential (a conventional pattern).
  bool IsConventional() const;

  /// The stratified pattern Qπ: same topology, every quantifier replaced
  /// by the existential σ(e) >= 1.
  Pattern Stratified() const;

  /// Π(Q): the focus's component over the non-negated edges once each
  /// negated edge's focus-far endpoint is dropped (§2.2; the reading,
  /// which matches the paper's Fig. 3 examples, is under "Semantics
  /// readings" in docs/ARCHITECTURE.md). Always contains the focus.
  /// Returns the derived pattern plus node/edge mappings.
  Result<std::pair<Pattern, SubPattern>> Pi() const;

  /// Q⁺ᵉ: this pattern with negated edge `e` positified to σ(e) >= 1.
  Result<Pattern> Positify(PatternEdgeId e) const;

  /// Structural validation (§2.2 Remark): focus set and in range; weakly
  /// connected; quantifiers individually valid; on every directed simple
  /// path at most `max_quantified_per_path` non-existential quantifiers
  /// and at most one negated edge (no double negation).
  Status Validate(int max_quantified_per_path = 2) const;

  /// Undirected shortest-path distance from the focus to each pattern
  /// node, -1 where none exists (all -1 without a focus).
  std::vector<int> FocusDistances() const;

  /// Longest undirected shortest-path distance from the focus to any
  /// pattern node (the paper's pattern radius, §5.1; undirected because
  /// match verification walks pattern edges both ways).
  int Radius() const;

  /// Human-readable dump; resolves label names through `dict` if given.
  std::string ToString(const LabelDict* dict = nullptr) const;

  friend bool operator==(const Pattern& a, const Pattern& b);

 private:
  std::vector<PatternNode> nodes_;
  std::vector<PatternEdge> edges_;
  std::vector<std::vector<PatternEdgeId>> out_edges_;
  std::vector<std::vector<PatternEdgeId>> in_edges_;
  PatternNodeId focus_ = kInvalidPatternId;
};

}  // namespace qgp

#endif  // QGP_CORE_PATTERN_H_
