#include "core/enum_matcher.h"

#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/candidate_space.h"
#include "core/generic_matcher.h"

namespace qgp {

Result<AnswerSet> EnumMatcher::EvaluatePositive(
    const Pattern& positive, const Graph& g, const MatchOptions& options,
    MatchStats* stats, std::span<const VertexId> focus_subset,
    CandidateCache* cache) {
  if (!positive.IsPositive()) {
    return Status::InvalidArgument("EvaluatePositive requires positive QGP");
  }
  // Plain candidate sets: label + existential degree refinement only.
  // These are exactly the sets the intern pool shares, so repeated builds
  // against one graph (the positified patterns, PEnum fragments) hit.
  MatchOptions plain = options;
  plain.use_simulation = false;
  plain.use_quantifier_pruning = false;
  QGP_ASSIGN_OR_RETURN(
      CandidateSpace cs,
      CandidateSpace::Build(positive, g, plain, stats, nullptr, cache));

  Pattern stratified = positive.Stratified();
  const PatternNodeId xo = positive.focus();
  // Unmasked views of the shared candidate sets — no per-node copies.
  std::vector<BitsetView> candidate_sets(positive.num_nodes());
  for (PatternNodeId u = 0; u < positive.num_nodes(); ++u) {
    candidate_sets[u] = cs.StratifiedView(u);
  }

  std::vector<VertexId> owned_focus_list;
  std::span<const VertexId> focus_list;
  if (focus_subset.empty()) {
    focus_list = cs.stratified(xo);
  } else {
    for (VertexId v : focus_subset) {
      if (cs.InStratified(xo, v)) owned_focus_list.push_back(v);
    }
    focus_list = owned_focus_list;
  }

  // The answer test reads an embedding only at the sources of the
  // quantified edges.
  std::vector<PatternEdgeId> quantified;
  for (PatternEdgeId e = 0; e < positive.num_edges(); ++e) {
    if (!positive.edge(e).quantifier.IsExistential()) quantified.push_back(e);
  }

  AnswerSet answers;
  // Per focus candidate: enumerate every embedding, then check counters —
  // the "enumerate first, verify afterwards" discipline of Enum. The
  // check of an embedding h0 reads h0[src(e)] and Me(vx, h0[src(e)], Q)
  // for each quantified edge e, so enumeration records Me per quantified
  // edge and the distinct tuples of those source images, not the
  // embeddings: a focus's memory no longer grows with its embedding
  // count. One matcher serves every focus candidate; its working buffers
  // are reused across Enumerate calls.
  std::vector<std::unordered_map<VertexId, std::unordered_set<VertexId>>> me(
      quantified.size());
  std::set<std::vector<VertexId>> tuples;
  std::vector<VertexId> tuple(quantified.size());
  GenericMatcher matcher(stratified, g, candidate_sets);
  const CancelToken* cancel = options.cancel;
  for (VertexId vx : focus_list) {
    // Every focus, and every 1,024 embeddings inside one: a single focus
    // can enumerate far past a deadline.
    QGP_CHECK_CANCEL(cancel);
    if (stats != nullptr) ++stats->focus_candidates_checked;
    for (auto& sets : me) sets.clear();
    tuples.clear();
    uint64_t found = 0;
    std::pair<PatternNodeId, VertexId> pin{xo, vx};
    GenericMatcher::SearchOptions sopts;
    sopts.pins = {&pin, 1};
    sopts.stats = stats;
    sopts.max_isomorphisms = options.max_isomorphisms;
    bool cancelled = false;
    bool completed = matcher.Enumerate(
        sopts, [&](const std::vector<VertexId>& h) {
          for (size_t i = 0; i < quantified.size(); ++i) {
            const PatternEdge& pe = positive.edge(quantified[i]);
            me[i][h[pe.src]].insert(h[pe.dst]);
            tuple[i] = h[pe.src];
          }
          tuples.insert(tuple);
          cancelled = (++found & 1023) == 0 && cancel != nullptr &&
                      cancel->ShouldStop();
          return !cancelled;
        });
    if (cancelled) return cancel->ToStatus();
    if (!completed) {
      return Status::Internal(
          "Enum exceeded the isomorphism cap; raise "
          "MatchOptions::max_isomorphisms");
    }
    for (const std::vector<VertexId>& t : tuples) {
      bool good = true;
      for (size_t i = 0; i < quantified.size() && good; ++i) {
        const PatternEdge& pe = positive.edge(quantified[i]);
        uint64_t matched = me[i][t[i]].size();
        uint64_t total = g.OutDegreeWithLabel(t[i], pe.label);
        if (!pe.quantifier.Eval(matched, total)) good = false;
      }
      if (good) {
        answers.push_back(vx);
        break;
      }
    }
  }
  Canonicalize(answers);
  return answers;
}

Result<AnswerSet> EnumMatcher::Evaluate(
    const Pattern& pattern, const Graph& g, const MatchOptions& options,
    MatchStats* stats, CandidateCache* cache,
    std::span<const VertexId> focus_subset) {
  QGP_RETURN_IF_ERROR(pattern.Validate(options.max_quantified_per_path));
  auto pi = pattern.Pi();
  if (!pi.ok()) return pi.status();
  // One intern pool for Π(Q) and every Π(Q⁺ᵉ): the positified patterns
  // differ only around the negated edge, so most nodes hit. A
  // caller-provided pool extends the sharing across Evaluate calls.
  std::optional<CandidateCache> local_cache;
  if (cache == nullptr) cache = &local_cache.emplace(g);
  QGP_ASSIGN_OR_RETURN(
      AnswerSet answers,
      EvaluatePositive(pi.value().first, g, options, stats, focus_subset,
                       cache));
  for (PatternEdgeId e : pattern.NegatedEdgeIds()) {
    QGP_CHECK_CANCEL(options.cancel);
    QGP_ASSIGN_OR_RETURN(Pattern positified, pattern.Positify(e));
    auto pi_pos = positified.Pi();
    if (!pi_pos.ok()) return pi_pos.status();
    QGP_ASSIGN_OR_RETURN(
        AnswerSet negative,
        EvaluatePositive(pi_pos.value().first, g, options, stats,
                         focus_subset, cache));
    answers = SetDifference(answers, negative);
  }
  return answers;
}

}  // namespace qgp
