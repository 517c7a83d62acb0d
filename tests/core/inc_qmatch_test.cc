// Direct IncQMatch unit coverage (§4.2): the incrementality levers,
// each pinned by the MatchStats counter that proves the work was
// actually skipped — re-verification of the cached answers only, in
// batches that build one ball per checked focus (balls_built),
// failed-witness-pair transfer (witness_searches), and the empty-cache
// fallback (correct answers with zero warm state). The end-to-end
// agreement of QMatch vs QMatchn lives in qmatch_test.cc /
// differential_test.cc; this file runs IncQMatch's step, the focus map
// over Π(Q)'s answers with their warm caches, against a hand-built Π(Q)
// run.

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>

#include "core/dmatch.h"
#include "core/qmatch.h"
#include "graph/graph_builder.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

// Shared fixture state: Π(Q) and Π(Q⁺ᵉ) evaluators for Q3 over G1,
// built the way QMatch builds them — each with its own pattern's
// ball-label filter. The graph member is constructed first and never
// moved afterwards (the evaluators reference it).
class IncSetup {
 public:
  IncSetup() : g_(testing::BuildG1(nullptr)) {
    Pattern q3 = testing::BuildQ3(g_.mutable_dict(), 2);
    MatchOptions opts;

    auto pi = q3.Pi();
    EXPECT_TRUE(pi.ok());
    auto ev0 = PositiveEvaluator::Create(
        pi.value().first, g_, opts, &pi.value().second.edge_to_original,
        q3.num_edges());
    EXPECT_TRUE(ev0.ok());
    ev0_.emplace(std::move(ev0).value());

    PatternEdgeId neg = q3.NegatedEdgeIds()[0];
    auto positified = q3.Positify(neg);
    EXPECT_TRUE(positified.ok());
    auto pi_pos = positified.value().Pi();
    EXPECT_TRUE(pi_pos.ok());
    auto ev_e = PositiveEvaluator::Create(
        pi_pos.value().first, g_, opts,
        &pi_pos.value().second.edge_to_original, q3.num_edges());
    EXPECT_TRUE(ev_e.ok());
    ev_e_.emplace(std::move(ev_e).value());

    a0 = ev0_->EvaluateSubset(ev0_->FocusCandidates(), nullptr, &caches,
                              &base_stats);
  }

  const PositiveEvaluator& ev0() const { return *ev0_; }
  const PositiveEvaluator& ev_e() const { return *ev_e_; }

  AnswerSet a0;
  std::unordered_map<VertexId, FocusCache> caches;
  MatchStats base_stats;

 private:
  Graph g_;
  std::optional<PositiveEvaluator> ev0_;
  std::optional<PositiveEvaluator> ev_e_;
};

TEST(IncQMatchTest, CachedBallsReusedWhenRadiusDoesNotGrow) {
  IncSetup s;
  ASSERT_FALSE(s.a0.empty());
  ASSERT_LE(s.ev_e().radius(), s.ev0().radius());
  for (VertexId vx : s.a0) ASSERT_TRUE(s.caches.count(vx));

  MatchStats warm, cold;
  AnswerSet with_cache =
      s.ev_e().EvaluateSubset(s.a0, &s.caches, nullptr, &warm);
  AnswerSet without_cache =
      s.ev_e().EvaluateSubset(s.a0, nullptr, nullptr, &cold);
  EXPECT_EQ(with_cache, without_cache);

  // Warm or cold, the answers go through the batched verifier: one ball
  // per good focus checked, out of one shared BFS (foci rejected before
  // extraction build none, so >= 1, not == |a0|).
  EXPECT_GT(cold.balls_built, 0u);
  EXPECT_EQ(warm.balls_built, cold.balls_built);
  EXPECT_EQ(warm.balls_built, warm.focus_candidates_checked);
}

// A focus that passes σ(e) >= 2 with one failing child records that
// child as a failed pair; a warm re-verification must not re-search it.
// Simulation/pruning/early-stop are disabled so the failure is really
// discovered (and memoized) at search time.
TEST(IncQMatchTest, FailedWitnessPairsTransfer) {
  GraphBuilder b;
  VertexId a = b.AddVertex("p");
  VertexId c1 = b.AddVertex("c");
  VertexId c2 = b.AddVertex("c");
  // c3 keeps a "g" out-edge (so the label-degree filter admits it as an
  // n1 candidate) but to a wrong-label vertex: its pinned witness search
  // must run and fail, recording the failed pair.
  VertexId c3 = b.AddVertex("c");
  VertexId d1 = b.AddVertex("x");
  VertexId d2 = b.AddVertex("x");
  VertexId y = b.AddVertex("y");
  ASSERT_TRUE(b.AddEdge(a, c1, "f").ok());
  ASSERT_TRUE(b.AddEdge(a, c2, "f").ok());
  ASSERT_TRUE(b.AddEdge(a, c3, "f").ok());
  ASSERT_TRUE(b.AddEdge(c1, d1, "g").ok());
  ASSERT_TRUE(b.AddEdge(c2, d2, "g").ok());
  ASSERT_TRUE(b.AddEdge(c3, y, "g").ok());
  Graph g = std::move(b).Build().value();

  LabelDict& dict = g.mutable_dict();
  Pattern p;
  PatternNodeId n0 = p.AddNode(dict.Intern("p"), "n0");
  PatternNodeId n1 = p.AddNode(dict.Intern("c"), "n1");
  PatternNodeId n2 = p.AddNode(dict.Intern("x"), "n2");
  (void)p.AddEdge(n0, n1, dict.Intern("f"), Quantifier::Numeric(QuantOp::kGe, 2));
  (void)p.AddEdge(n1, n2, dict.Intern("g"), Quantifier());
  (void)p.set_focus(n0);
  ASSERT_TRUE(p.Validate().ok());

  MatchOptions opts;
  opts.use_simulation = false;
  opts.use_quantifier_pruning = false;
  opts.early_stop_counting = false;
  auto ev = PositiveEvaluator::Create(p, g, opts, nullptr, p.num_edges());
  ASSERT_TRUE(ev.ok());

  std::unordered_map<VertexId, FocusCache> caches;
  MatchStats first;
  AnswerSet a0 =
      ev->EvaluateSubset(ev->FocusCandidates(), nullptr, &caches, &first);
  ASSERT_EQ(a0, (AnswerSet{a}));

  // The Π(Q) run proved (a, c3) witness-free and recorded it.
  size_t transferred_pairs = 0;
  for (const auto& [vx, cache] : caches) {
    for (const auto& failed : cache.failed_by_original_edge) {
      transferred_pairs += failed.size();
    }
  }
  ASSERT_GT(transferred_pairs, 0u);

  MatchStats warm, cold;
  AnswerSet with_cache = ev->EvaluateSubset(a0, &caches, nullptr, &warm);
  AnswerSet without_cache = ev->EvaluateSubset(a0, nullptr, nullptr, &cold);
  EXPECT_EQ(with_cache, without_cache);
  EXPECT_EQ(with_cache, a0);
  EXPECT_LT(warm.witness_searches, cold.witness_searches);
}

TEST(IncQMatchTest, EmptyCacheFallbackIsExact) {
  IncSetup s;
  AnswerSet incremental = s.ev_e().EvaluateSubset(s.a0, nullptr, nullptr,
                                                  nullptr);
  // No warm state: still restricted to the cached answers and still
  // exact inside them.
  AnswerSet direct = s.ev_e().EvaluateSubset(s.ev_e().FocusCandidates(),
                                             nullptr, nullptr, nullptr);
  EXPECT_EQ(incremental, SetIntersection(direct, s.a0));

  // QMatch re-verifies exactly the cached answers: Q3 has one negated
  // edge, so inc_candidates_checked is |Π(Q)(xo, G)|.
  Graph g = testing::BuildG1(nullptr);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  MatchStats stats;
  ASSERT_TRUE(QMatch::Evaluate(q3, g, MatchOptions{}, &stats).ok());
  EXPECT_EQ(stats.inc_candidates_checked, s.a0.size());

  // Degenerate inputs: no cached answers means nothing to verify.
  MatchStats empty_stats;
  EXPECT_TRUE(
      s.ev_e().EvaluateSubset({}, nullptr, nullptr, &empty_stats).empty());
  EXPECT_EQ(empty_stats.focus_candidates_checked, 0u);
}

}  // namespace
}  // namespace qgp
