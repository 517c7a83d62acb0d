#include "core/qmatch.h"

#include <gtest/gtest.h>

#include "core/dmatch.h"
#include "core/naive_matcher.h"
#include "graph/graph_builder.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

TEST(QMatchTest, SubsetRestrictsAnswers) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  std::vector<VertexId> subset{ids.x2, ids.x3};
  auto answers = QMatch::EvaluateSubset(q2, g, subset, opts, nullptr);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids.x2}));  // x1 not in subset
}

TEST(QMatchTest, IncrementalAndNaiveNegationAgree) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  auto inc = QMatch::Evaluate(q3, g);
  MatchOptions naive_options;
  naive_options.use_incremental_negation = false;
  auto naive = QMatch::Evaluate(q3, g, naive_options);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(inc.value(), naive.value());
}

TEST(QMatchTest, IncrementalDoesLessVerification) {
  testing::G2Ids ids;
  Graph g = testing::BuildG2(&ids);
  Pattern q4 = testing::BuildQ4(g.mutable_dict(), 2);
  MatchStats inc_stats, naive_stats;
  MatchOptions opts;
  ASSERT_TRUE(QMatch::Evaluate(q4, g, opts, &inc_stats).ok());
  opts.use_incremental_negation = false;
  ASSERT_TRUE(QMatch::Evaluate(q4, g, opts, &naive_stats).ok());
  // IncQMatch re-verifies only the cached answers, QMatchn the full good
  // focus set of each positified pattern.
  EXPECT_LE(inc_stats.focus_candidates_checked,
            naive_stats.focus_candidates_checked);
}

TEST(QMatchTest, ThreadPoolProducesSameAnswers) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  MatchOptions opts;
  ThreadPool pool(3);
  auto parallel = QMatch::Evaluate(q3, g, opts, nullptr, &pool);
  auto serial = QMatch::Evaluate(q3, g, opts, nullptr, nullptr);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(parallel.value(), serial.value());
}

TEST(QMatchTest, OptionTogglesPreserveAnswers) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  auto reference = QMatch::Evaluate(q3, g);
  ASSERT_TRUE(reference.ok());
  for (bool sim : {true, false}) {
    for (bool prune : {true, false}) {
      for (bool potential : {true, false}) {
        for (bool early : {true, false}) {
          MatchOptions opts;
          opts.use_simulation = sim;
          opts.use_quantifier_pruning = prune;
          opts.use_potential_ordering = potential;
          opts.early_stop_counting = early;
          auto answers = QMatch::Evaluate(q3, g, opts);
          ASSERT_TRUE(answers.ok());
          EXPECT_EQ(answers.value(), reference.value())
              << "sim=" << sim << " prune=" << prune
              << " potential=" << potential << " early=" << early;
        }
      }
    }
  }
}

TEST(QMatchTest, RejectsInvalidPattern) {
  Graph g = testing::BuildG1(nullptr);
  Pattern empty;
  EXPECT_FALSE(QMatch::Evaluate(empty, g).ok());
}

TEST(QMatchTest, RejectsPathRuleViolation) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  Pattern p;
  PatternNodeId a = p.AddNode(dict.Intern("person"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("person"), "b");
  PatternNodeId c = p.AddNode(dict.Intern("person"), "c");
  PatternNodeId d = p.AddNode(dict.Intern("person"), "d");
  Quantifier q = Quantifier::Numeric(QuantOp::kGe, 2);
  (void)p.AddEdge(a, b, dict.Intern("follow"), q);
  (void)p.AddEdge(b, c, dict.Intern("follow"), q);
  (void)p.AddEdge(c, d, dict.Intern("follow"), q);
  (void)p.set_focus(a);
  MatchOptions opts;  // default l = 2
  EXPECT_FALSE(QMatch::Evaluate(p, g, opts).ok());
  opts.max_quantified_per_path = 3;
  EXPECT_TRUE(QMatch::Evaluate(p, g, opts).ok());
}

TEST(DMatchTest, EvaluatorExposesFocusCandidates) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  auto ev = PositiveEvaluator::Create(q2, g, opts);
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->radius(), 2);
  EXPECT_FALSE(ev->FocusCandidates().empty());
  EXPECT_TRUE(ev->VerifyFocus(ids.x1, nullptr, nullptr, nullptr));
  EXPECT_TRUE(ev->VerifyFocus(ids.x2, nullptr, nullptr, nullptr));
  EXPECT_FALSE(ev->VerifyFocus(ids.x3, nullptr, nullptr, nullptr));
  EXPECT_FALSE(ev->VerifyFocus(ids.v4, nullptr, nullptr, nullptr));
}

TEST(DMatchTest, RejectsNegativePattern) {
  Graph g = testing::BuildG1(nullptr);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  MatchOptions opts;
  EXPECT_FALSE(PositiveEvaluator::Create(q3, g, opts).ok());
}

TEST(DMatchTest, CachesRecordBallAndWitness) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  auto ev = PositiveEvaluator::Create(q2, g, opts);
  ASSERT_TRUE(ev.ok());
  FocusCache cache;
  ASSERT_TRUE(ev->VerifyFocus(ids.x2, nullptr, &cache, nullptr));
  EXPECT_EQ(cache.failed_by_original_edge.size(), q2.num_edges());
}

TEST(IncQMatchTest, MatchesDirectEvaluation) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  MatchOptions opts;

  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok());
  auto ev0 = PositiveEvaluator::Create(pi.value().first, g, opts,
                                       &pi.value().second.edge_to_original,
                                       q3.num_edges());
  ASSERT_TRUE(ev0.ok());
  std::unordered_map<VertexId, FocusCache> caches;
  AnswerSet a0 =
      ev0->EvaluateSubset(ev0->FocusCandidates(), nullptr, &caches, nullptr);
  EXPECT_EQ(a0, (AnswerSet{ids.x2, ids.x3}));

  PatternEdgeId neg = q3.NegatedEdgeIds()[0];
  auto positified = q3.Positify(neg);
  ASSERT_TRUE(positified.ok());
  auto pi_pos = positified.value().Pi();
  ASSERT_TRUE(pi_pos.ok());
  auto ev_e = PositiveEvaluator::Create(
      pi_pos.value().first, g, opts,
      &pi_pos.value().second.edge_to_original, q3.num_edges());
  ASSERT_TRUE(ev_e.ok());

  AnswerSet incremental = ev_e->EvaluateSubset(a0, &caches, nullptr, nullptr);
  AnswerSet direct =
      ev_e->EvaluateSubset(ev_e->FocusCandidates(), nullptr, nullptr, nullptr);
  // Incremental is restricted to a0; direct may exceed it, but inside a0
  // they must agree.
  EXPECT_EQ(incremental, SetIntersection(direct, a0));
  EXPECT_EQ(incremental, (AnswerSet{ids.x3}));
}

// x follows six people, two of whom buy an item: 2/6 = 33.33...% is above
// 33.333333333%. The strict ratio's minimum count once came out as 3, so
// candidate pruning (2 buying followees < 3) dropped x, a true answer.
TEST(QMatchTest, StrictRatioNearABoundaryAgreesWithNaive) {
  GraphBuilder b;
  const VertexId x = b.AddVertex("person");
  const VertexId item = b.AddVertex("item");
  for (int i = 0; i < 6; ++i) {
    const VertexId c = b.AddVertex("person");
    (void)b.AddEdge(x, c, "follow");
    if (i < 2) (void)b.AddEdge(c, item, "buys");
  }
  Graph g = std::move(b).Build().value();
  LabelDict& dict = g.mutable_dict();
  Pattern q;
  PatternNodeId xo = q.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z = q.AddNode(dict.Intern("person"), "z");
  PatternNodeId it = q.AddNode(dict.Intern("item"), "it");
  ASSERT_TRUE(q.AddEdge(xo, z, dict.Intern("follow"),
                        Quantifier::Ratio(QuantOp::kGt, 33.333333333))
                  .ok());
  ASSERT_TRUE(q.AddEdge(z, it, dict.Intern("buys")).ok());
  ASSERT_TRUE(q.set_focus(xo).ok());
  auto oracle = NaiveMatcher::Evaluate(q, g);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(*oracle, (AnswerSet{x}));
  for (bool prune : {true, false}) {
    for (bool early : {true, false}) {
      MatchOptions opts;
      opts.use_quantifier_pruning = prune;
      opts.early_stop_counting = early;
      auto answers = QMatch::Evaluate(q, g, opts);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_EQ(*answers, *oracle) << "prune=" << prune << " early=" << early;
    }
  }
}

}  // namespace
}  // namespace qgp
