#include "core/qmatch.h"

#include <algorithm>
#include <optional>

#include "common/failpoint.h"
#include "core/dmatch.h"
#include "graph/graph_delta.h"

namespace qgp {

namespace {

Result<AnswerSet> EvaluateImpl(const Pattern& pattern, const Graph& g,
                               std::span<const VertexId> focus_subset,
                               const MatchOptions& options, MatchStats* stats,
                               ThreadPool* pool, CandidateCache* cache,
                               QMatchArtifacts* artifacts = nullptr) {
  QGP_RETURN_IF_ERROR(pattern.Validate(options.max_quantified_per_path));
  // Intern label/degree candidate sets across Π(Q) and every Π(Q⁺ᵉ) even
  // when the caller brought no cross-call cache.
  std::optional<CandidateCache> local_cache;
  if (cache == nullptr) cache = &local_cache.emplace(g);
  auto pi = pattern.Pi();
  if (!pi.ok()) return pi.status();
  Pattern& pi_pattern = pi.value().first;
  SubPattern& pi_map = pi.value().second;

  QGP_ASSIGN_OR_RETURN(
      PositiveEvaluator ev0,
      PositiveEvaluator::Create(std::move(pi_pattern), g, options,
                                &pi_map.edge_to_original,
                                pattern.num_edges(), pool, cache,
                                /*repair=*/nullptr, stats));

  QGP_FAILPOINT("qmatch.verify");
  if (artifacts != nullptr) artifacts->pi_space = ev0.candidate_space();

  const std::vector<PatternEdgeId> negated = pattern.NegatedEdgeIds();
  const bool want_caches =
      !negated.empty() && options.use_incremental_negation;
  FocusCaches caches;

  // The foci a pass verifies: every focus candidate, or in a subset run
  // only those inside the subset — other ids would only take slots in
  // the verification batches, and a Π(Q⁺ᵉ) verdict outside the subset
  // is never subtracted from.
  std::vector<VertexId> owned;
  auto foci = [&](const PositiveEvaluator& ev) -> std::span<const VertexId> {
    if (focus_subset.empty()) return ev.FocusCandidates();
    const PatternNodeId focus = ev.pattern().focus();
    owned.clear();
    for (VertexId v : focus_subset) {
      if (ev.candidate_space().InGood(focus, v)) owned.push_back(v);
    }
    return owned;
  };
  AnswerSet answers = ev0.EvaluateSubset(
      foci(ev0), nullptr, want_caches ? &caches : nullptr, stats, pool);
  QGP_CHECK_CANCEL(options.cancel);  // a fired token truncated `answers`

  for (PatternEdgeId e : negated) {
    QGP_CHECK_CANCEL(options.cancel);
    if (answers.empty()) break;  // nothing left to subtract from
    QGP_ASSIGN_OR_RETURN(Pattern positified, pattern.Positify(e));
    auto pi_pos = positified.Pi();
    if (!pi_pos.ok()) return pi_pos.status();
    QGP_ASSIGN_OR_RETURN(
        PositiveEvaluator ev_e,
        PositiveEvaluator::Create(std::move(pi_pos.value().first), g, options,
                                  &pi_pos.value().second.edge_to_original,
                                  pattern.num_edges(), pool, cache,
                                  /*repair=*/nullptr, stats));
    AnswerSet negative;
    if (options.use_incremental_negation) {
      // IncQMatch (§4.2): only Π(Q)'s cached answers are re-verified (the
      // difference never needs Π(Q⁺ᵉ) outside them), each seeded with its
      // Π(Q) failed pairs. These transfer soundly, since a bigger pattern
      // has fewer embeddings: only pairs touching ΔE are re-searched, the
      // AFF-bounded work of Proposition 6.
      if (stats != nullptr) stats->inc_candidates_checked += answers.size();
      negative = ev_e.EvaluateSubset(answers, &caches, nullptr, stats, pool);
    } else {
      // QMatchn: full recomputation of Π(Q⁺ᵉ)(xo, G).
      negative =
          ev_e.EvaluateSubset(foci(ev_e), nullptr, nullptr, stats, pool);
    }
    QGP_CHECK_CANCEL(options.cancel);  // `negative` may be truncated
    answers = SetDifference(answers, negative);
  }
  return answers;
}

}  // namespace

Result<AnswerSet> QMatch::Evaluate(const Pattern& pattern, const Graph& g,
                                   const MatchOptions& options,
                                   MatchStats* stats, ThreadPool* pool,
                                   CandidateCache* cache,
                                   QMatchArtifacts* artifacts) {
  return EvaluateImpl(pattern, g, {}, options, stats, pool, cache, artifacts);
}

Result<AnswerSet> QMatch::EvaluateRepaired(
    const Pattern& pattern, const Graph& g, const MatchOptions& options,
    const CandidateSpace& previous_space, const AnswerSet& previous_answers,
    const GraphDeltaSummary& delta, MatchStats* stats, ThreadPool* pool,
    CandidateCache* cache, QMatchArtifacts* artifacts, bool* fell_back) {
  if (fell_back != nullptr) *fell_back = false;
  if (!pattern.IsPositive()) {
    return Status::InvalidArgument(
        "delta repair requires a positive pattern: negated patterns must "
        "re-evaluate every positified variant");
  }
  QGP_RETURN_IF_ERROR(pattern.Validate(options.max_quantified_per_path));
  std::optional<CandidateCache> local_cache;
  if (cache == nullptr) cache = &local_cache.emplace(g);
  auto pi = pattern.Pi();
  if (!pi.ok()) return pi.status();
  Pattern& pi_pattern = pi.value().first;
  SubPattern& pi_map = pi.value().second;

  DynamicBitset ball_labels(g.dict().size());
  for (PatternEdgeId e = 0; e < pattern.num_edges(); ++e) {
    Label l = pattern.edge(e).label;
    if (l < ball_labels.size()) ball_labels.Set(l);
  }
  DynamicBitset node_labels(g.dict().size());
  for (PatternNodeId u = 0; u < pattern.num_nodes(); ++u) {
    Label l = pattern.node(u).label;
    if (l < node_labels.size()) node_labels.Set(l);
  }

  CandidateRepairInfo info;
  SpaceRepairHint hint{&previous_space, &delta, &info};
  QGP_ASSIGN_OR_RETURN(
      PositiveEvaluator ev,
      PositiveEvaluator::Create(std::move(pi_pattern), g, options,
                                &pi_map.edge_to_original, pattern.num_edges(),
                                pool, cache, &hint, stats));
  if (artifacts != nullptr) artifacts->pi_space = ev.candidate_space();

  // Affected region: every focus whose verdict can have flipped lies
  // within radius hops (over pattern-labeled edges) of a delta-touched
  // vertex or of a vertex whose stratified candidacy changed. Goodness
  // changes ride along: a focus's quantifier upper bound reads only its
  // own label-degree (touched ⇒ root) and its counted children's
  // candidacy (changed ⇒ root, one hop away ≤ radius).
  const size_t n = g.num_vertices();
  DynamicBitset region(n);
  std::vector<VertexId> frontier;
  auto add_root = [&](VertexId v) {
    if (v < n && region.TestAndSet(v)) frontier.push_back(v);
  };
  for (VertexId v :
       TouchedVertices(delta, &ball_labels, &node_labels,
                       /*additions_only=*/false)) {
    add_root(v);
  }
  for (VertexId v : info.changed) add_root(v);
  size_t region_size = frontier.size();
  const size_t region_budget = n / 2;
  bool overflow = region_size > region_budget;
  for (int hop = 0; hop < ev.radius() && !overflow; ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (const Neighbor& nbr : g.OutNeighbors(v)) {
        if (nbr.label < ball_labels.size() && ball_labels.Test(nbr.label) &&
            region.TestAndSet(nbr.v)) {
          next.push_back(nbr.v);
        }
      }
      for (const Neighbor& nbr : g.InNeighbors(v)) {
        if (nbr.label < ball_labels.size() && ball_labels.Test(nbr.label) &&
            region.TestAndSet(nbr.v)) {
          next.push_back(nbr.v);
        }
      }
    }
    region_size += next.size();
    overflow = region_size > region_budget;
    frontier = std::move(next);
  }

  if (overflow) {
    // Locality lost: verify every focus candidate against the repaired
    // space. Still exact, still cheaper than a from-scratch space build.
    if (fell_back != nullptr) *fell_back = true;
    if (stats != nullptr) {
      stats->inc_candidates_checked += ev.FocusCandidates().size();
    }
    AnswerSet all =
        ev.EvaluateSubset(ev.FocusCandidates(), nullptr, nullptr, stats, pool);
    QGP_CHECK_CANCEL(options.cancel);  // a fired token truncated `all`
    return all;
  }

  std::vector<VertexId> subset;
  for (VertexId v : ev.FocusCandidates()) {
    if (region.Test(v)) subset.push_back(v);
  }
  if (stats != nullptr) stats->inc_candidates_checked += subset.size();
  AnswerSet verified =
      ev.EvaluateSubset(subset, nullptr, nullptr, stats, pool);
  QGP_CHECK_CANCEL(options.cancel);  // a fired token truncated `verified`
  AnswerSet answers;
  answers.reserve(previous_answers.size() + verified.size());
  for (VertexId v : previous_answers) {
    if (v < n && !region.Test(v)) answers.push_back(v);
  }
  // Kept (outside the region) and re-verified (inside it) are disjoint
  // sorted runs; merging preserves the canonical order.
  AnswerSet merged;
  merged.reserve(answers.size() + verified.size());
  std::merge(answers.begin(), answers.end(), verified.begin(), verified.end(),
             std::back_inserter(merged));
  return merged;
}

Result<AnswerSet> QMatch::EvaluateSubset(const Pattern& pattern,
                                         const Graph& g,
                                         std::span<const VertexId> focus_subset,
                                         const MatchOptions& options,
                                         MatchStats* stats, ThreadPool* pool,
                                         CandidateCache* cache) {
  return EvaluateImpl(pattern, g, focus_subset, options, stats, pool, cache);
}

}  // namespace qgp
