// End-to-end checks against the worked examples of the paper (Examples
// 3–7 on Fig. 2's G1, Example 4's Q4 on the G2-style graph). Every
// matcher in the library must reproduce the published answers.
#include <gtest/gtest.h>

#include "core/enum_matcher.h"
#include "core/naive_matcher.h"
#include "core/qmatch.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

using testing::BuildG1;
using testing::BuildG2;
using testing::BuildQ2;
using testing::BuildQ3;
using testing::BuildQ4;
using testing::G1Ids;
using testing::G2Ids;

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g1_ = BuildG1(&ids1_);
    g2_ = BuildG2(&ids2_);
  }
  Graph g1_, g2_;
  G1Ids ids1_;
  G2Ids ids2_;
};

TEST_F(PaperExamplesTest, Example3_Q2UniversalQuantifier) {
  Pattern q2 = BuildQ2(g1_.mutable_dict());
  AnswerSet expected{ids1_.x1, ids1_.x2};

  auto naive = NaiveMatcher::Evaluate(q2, g1_);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive.value(), expected);

  auto qmatch = QMatch::Evaluate(q2, g1_);
  ASSERT_TRUE(qmatch.ok()) << qmatch.status().ToString();
  EXPECT_EQ(qmatch.value(), expected);

  auto en = EnumMatcher::Evaluate(q2, g1_);
  ASSERT_TRUE(en.ok()) << en.status().ToString();
  EXPECT_EQ(en.value(), expected);
}

TEST_F(PaperExamplesTest, Example4_PiQ3PositivePart) {
  // Π(Q3) with p=2 keeps {x2, x3}: x1's single followee cannot reach the
  // >=2 counter.
  Pattern q3 = BuildQ3(g1_.mutable_dict(), /*p=*/2);
  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok()) << pi.status().ToString();
  const Pattern& pi_pattern = pi.value().first;
  // Π(Q3) drops z2 and both its edges.
  EXPECT_EQ(pi_pattern.num_nodes(), 3u);
  EXPECT_EQ(pi_pattern.num_edges(), 2u);

  auto answers = NaiveMatcher::EvaluatePositive(pi_pattern, g1_, 0);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids1_.x2, ids1_.x3}));
}

TEST_F(PaperExamplesTest, Example4_Q3NegationExcludesX3) {
  Pattern q3 = BuildQ3(g1_.mutable_dict(), /*p=*/2);
  AnswerSet expected{ids1_.x2};  // x3 follows v4 who gave a bad rating

  auto naive = NaiveMatcher::Evaluate(q3, g1_);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive.value(), expected);

  auto qmatch = QMatch::Evaluate(q3, g1_);
  ASSERT_TRUE(qmatch.ok()) << qmatch.status().ToString();
  EXPECT_EQ(qmatch.value(), expected);

  MatchOptions qmatchn_options;
  qmatchn_options.use_incremental_negation = false;
  auto qmatchn = QMatch::Evaluate(q3, g1_, qmatchn_options);
  ASSERT_TRUE(qmatchn.ok());
  EXPECT_EQ(qmatchn.value(), expected);

  auto en = EnumMatcher::Evaluate(q3, g1_);
  ASSERT_TRUE(en.ok());
  EXPECT_EQ(en.value(), expected);
}

TEST_F(PaperExamplesTest, Example7_PositifiedQ3FindsX3) {
  // Π(Q3^{+(xo,z2)})(xo, G1) = {x3}: only x3 follows someone with a bad
  // rating on the product.
  Pattern q3 = BuildQ3(g1_.mutable_dict(), /*p=*/2);
  std::vector<PatternEdgeId> negated = q3.NegatedEdgeIds();
  ASSERT_EQ(negated.size(), 1u);
  auto positified = q3.Positify(negated[0]);
  ASSERT_TRUE(positified.ok());
  auto pi = positified.value().Pi();
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(pi.value().first.num_nodes(), q3.num_nodes());

  auto answers = NaiveMatcher::EvaluatePositive(pi.value().first, g1_, 0);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids1_.x3}));
}

TEST_F(PaperExamplesTest, Example4_Q4OnKnowledgeGraph) {
  Pattern q4 = BuildQ4(g2_.mutable_dict(), /*p=*/2);
  AnswerSet expected{ids2_.x5, ids2_.x6};  // x4 holds a PhD

  auto naive = NaiveMatcher::Evaluate(q4, g2_);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive.value(), expected);

  auto qmatch = QMatch::Evaluate(q4, g2_);
  ASSERT_TRUE(qmatch.ok()) << qmatch.status().ToString();
  EXPECT_EQ(qmatch.value(), expected);

  auto en = EnumMatcher::Evaluate(q4, g2_);
  ASSERT_TRUE(en.ok());
  EXPECT_EQ(en.value(), expected);
}

TEST_F(PaperExamplesTest, Q4StratifiedAcceptsX4) {
  // "x4 matches the stratified pattern of Q4" — only the negation rules
  // it out.
  Pattern q4 = BuildQ4(g2_.mutable_dict(), /*p=*/2);
  auto pi = q4.Pi();
  ASSERT_TRUE(pi.ok());
  auto answers = NaiveMatcher::EvaluatePositive(pi.value().first, g2_, 0);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids2_.x4, ids2_.x5, ids2_.x6}));
}

TEST_F(PaperExamplesTest, Q4LargerThresholdEmpty) {
  // With p=3 no professor has three UK-professor students.
  Pattern q4 = BuildQ4(g2_.mutable_dict(), /*p=*/3);
  auto qmatch = QMatch::Evaluate(q4, g2_);
  ASSERT_TRUE(qmatch.ok());
  EXPECT_TRUE(qmatch.value().empty());
}

TEST_F(PaperExamplesTest, Q3ThresholdOneKeepsX1) {
  // Dropping the counter to >=1 admits x1 into Π(Q3); the negation still
  // removes x3.
  Pattern q3 = BuildQ3(g1_.mutable_dict(), /*p=*/1);
  auto qmatch = QMatch::Evaluate(q3, g1_);
  ASSERT_TRUE(qmatch.ok());
  EXPECT_EQ(qmatch.value(), (AnswerSet{ids1_.x1, ids1_.x2}));
}

TEST_F(PaperExamplesTest, RatioEightyPercentVariant) {
  // Q1-style ratio: >= 80% of followees recommend the product. x1: 1/1,
  // x2: 2/2 pass; x3: 2/3 = 66.7% fails.
  LabelDict& dict = g1_.mutable_dict();
  Pattern q;
  PatternNodeId xo = q.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z = q.AddNode(dict.Intern("person"), "z");
  PatternNodeId r = q.AddNode(dict.Intern("redmi_2a"), "r");
  ASSERT_TRUE(q.AddEdge(xo, z, dict.Intern("follow"),
                        Quantifier::Ratio(QuantOp::kGe, 80.0))
                  .ok());
  ASSERT_TRUE(q.AddEdge(z, r, dict.Intern("recom")).ok());
  ASSERT_TRUE(q.set_focus(xo).ok());

  auto naive = NaiveMatcher::Evaluate(q, g1_);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive.value(), (AnswerSet{ids1_.x1, ids1_.x2}));
  auto qmatch = QMatch::Evaluate(q, g1_);
  ASSERT_TRUE(qmatch.ok());
  EXPECT_EQ(qmatch.value(), naive.value());
}

}  // namespace
}  // namespace qgp
