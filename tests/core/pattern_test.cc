#include "core/pattern.h"

#include <gtest/gtest.h>

#include "testing/paper_graphs.h"

namespace qgp {
namespace {

Pattern Chain3(LabelDict& dict, Quantifier q01 = Quantifier(),
               Quantifier q12 = Quantifier()) {
  Pattern p;
  PatternNodeId a = p.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("b"), "b");
  PatternNodeId c = p.AddNode(dict.Intern("c"), "c");
  (void)p.AddEdge(a, b, dict.Intern("e"), q01);
  (void)p.AddEdge(b, c, dict.Intern("f"), q12);
  (void)p.set_focus(a);
  return p;
}

TEST(PatternTest, BuildAndAccessors) {
  LabelDict dict;
  Pattern p = Chain3(dict);
  EXPECT_EQ(p.num_nodes(), 3u);
  EXPECT_EQ(p.num_edges(), 2u);
  EXPECT_EQ(p.focus(), 0u);
  EXPECT_EQ(p.OutEdgeIds(0).size(), 1u);
  EXPECT_EQ(p.InEdgeIds(1).size(), 1u);
  EXPECT_EQ(p.edge(0).src, 0u);
  EXPECT_EQ(p.edge(0).dst, 1u);
  EXPECT_TRUE(p.IsPositive());
  EXPECT_TRUE(p.IsConventional());
}

TEST(PatternTest, EdgeEndpointValidation) {
  Pattern p;
  p.AddNode(0, "a");
  EXPECT_FALSE(p.AddEdge(0, 5, 0).ok());
  EXPECT_FALSE(p.set_focus(9).ok());
}

TEST(PatternTest, InvalidQuantifierRejected) {
  Pattern p;
  p.AddNode(0, "a");
  p.AddNode(0, "b");
  EXPECT_FALSE(p.AddEdge(0, 1, 0, Quantifier::Ratio(QuantOp::kGe, 0)).ok());
}

TEST(PatternTest, StratifiedStripsQuantifiers) {
  LabelDict dict;
  Pattern p = Chain3(dict, Quantifier::Numeric(QuantOp::kGe, 5),
                     Quantifier::Universal());
  EXPECT_FALSE(p.IsConventional());
  Pattern s = p.Stratified();
  EXPECT_TRUE(s.IsConventional());
  EXPECT_EQ(s.num_nodes(), p.num_nodes());
  EXPECT_EQ(s.num_edges(), p.num_edges());
  EXPECT_EQ(s.focus(), p.focus());
}

TEST(PatternTest, NegatedEdgeIds) {
  LabelDict dict;
  Pattern p = Chain3(dict, Quantifier(), Quantifier::Negation());
  EXPECT_FALSE(p.IsPositive());
  EXPECT_EQ(p.NegatedEdgeIds(), (std::vector<PatternEdgeId>{1}));
}

TEST(PatternTest, PiOnPositivePatternIsIdentity) {
  LabelDict dict;
  Pattern p = Chain3(dict, Quantifier::Numeric(QuantOp::kGe, 2));
  auto pi = p.Pi();
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(pi.value().first.num_nodes(), 3u);
  EXPECT_EQ(pi.value().first.num_edges(), 2u);
  // Mappings are identities.
  for (PatternNodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(pi.value().second.node_to_original[u], u);
    EXPECT_EQ(pi.value().second.node_from_original[u], u);
  }
}

TEST(PatternTest, PiDropsNodesBehindNegatedEdges) {
  // Q3 shape: z2 and its outgoing edge disappear even though z2 reaches
  // the shared product node (docs/ARCHITECTURE.md, "Semantics readings").
  LabelDict dict;
  Pattern q3 = testing::BuildQ3(dict, 2);
  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok());
  const Pattern& p = pi.value().first;
  const SubPattern& map = pi.value().second;
  EXPECT_EQ(p.num_nodes(), 3u);
  EXPECT_EQ(p.num_edges(), 2u);
  // z2 (original node 2) has no image.
  EXPECT_EQ(map.node_from_original[2], kInvalidPatternId);
  // Edge mapping points at original ids.
  ASSERT_EQ(map.edge_to_original.size(), 2u);
  EXPECT_EQ(map.edge_to_original[0], 0u);
  EXPECT_EQ(map.edge_to_original[1], 1u);
}

TEST(PatternTest, PiDropsNegatedTargetEvenWhenOtherwiseConnected) {
  // xo -> a, xo -> b, a -(neg)-> b: b is "connected via at least one
  // negated edge" (§2.2), so Π drops it together with the (xo, b) edge;
  // positifying restores all three edges.
  LabelDict dict;
  Pattern p;
  PatternNodeId xo = p.AddNode(dict.Intern("x"), "xo");
  PatternNodeId a = p.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("b"), "b");
  (void)p.AddEdge(xo, a, dict.Intern("e"));
  (void)p.AddEdge(xo, b, dict.Intern("e"));
  (void)p.AddEdge(a, b, dict.Intern("f"), Quantifier::Negation());
  (void)p.set_focus(xo);
  auto pi = p.Pi();
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(pi.value().first.num_nodes(), 2u);
  EXPECT_EQ(pi.value().first.num_edges(), 1u);
  EXPECT_EQ(pi.value().second.node_from_original[b], kInvalidPatternId);

  auto pos = p.Positify(2);
  ASSERT_TRUE(pos.ok());
  auto pi_pos = pos.value().Pi();
  ASSERT_TRUE(pi_pos.ok());
  EXPECT_EQ(pi_pos.value().first.num_nodes(), 3u);
  EXPECT_EQ(pi_pos.value().first.num_edges(), 3u);
}

TEST(PatternTest, PositifyTurnsNegationExistential) {
  LabelDict dict;
  Pattern q3 = testing::BuildQ3(dict, 2);
  auto pos = q3.Positify(q3.NegatedEdgeIds()[0]);
  ASSERT_TRUE(pos.ok());
  EXPECT_TRUE(pos.value().IsPositive());
  EXPECT_TRUE(pos.value()
                  .edge(q3.NegatedEdgeIds()[0])
                  .quantifier.IsExistential());
}

TEST(PatternTest, PositifyRejectsNonNegatedEdge) {
  LabelDict dict;
  Pattern q3 = testing::BuildQ3(dict, 2);
  EXPECT_FALSE(q3.Positify(0).ok());
  EXPECT_FALSE(q3.Positify(99).ok());
}

TEST(PatternTest, ValidateRejectsEmptyAndDisconnected) {
  Pattern empty;
  EXPECT_FALSE(empty.Validate().ok());

  LabelDict dict;
  Pattern p;
  p.AddNode(dict.Intern("a"), "a");
  p.AddNode(dict.Intern("b"), "b");  // no edge: disconnected
  (void)p.set_focus(0);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PatternTest, ValidateSingleNodeOk) {
  LabelDict dict;
  Pattern p;
  p.AddNode(dict.Intern("a"), "a");
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PatternTest, ValidatePathQuantifierBudget) {
  LabelDict dict;
  // Three non-existential quantifiers on one simple path exceeds l = 2.
  Pattern p;
  PatternNodeId a = p.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("b"), "b");
  PatternNodeId c = p.AddNode(dict.Intern("c"), "c");
  PatternNodeId d = p.AddNode(dict.Intern("d"), "d");
  Quantifier q = Quantifier::Numeric(QuantOp::kGe, 2);
  (void)p.AddEdge(a, b, dict.Intern("e"), q);
  (void)p.AddEdge(b, c, dict.Intern("e"), q);
  (void)p.AddEdge(c, d, dict.Intern("e"), q);
  (void)p.set_focus(a);
  EXPECT_FALSE(p.Validate(2).ok());
  EXPECT_TRUE(p.Validate(3).ok());
}

TEST(PatternTest, ValidateRejectsDoubleNegationOnPath) {
  LabelDict dict;
  Pattern p;
  PatternNodeId a = p.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("b"), "b");
  PatternNodeId c = p.AddNode(dict.Intern("c"), "c");
  (void)p.AddEdge(a, b, dict.Intern("e"), Quantifier::Negation());
  (void)p.AddEdge(b, c, dict.Intern("e"), Quantifier::Negation());
  (void)p.set_focus(a);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PatternTest, ValidateAllowsNegationsOnSeparateBranches) {
  // Q5-style: two negated edges on different branches are fine.
  LabelDict dict;
  Pattern p;
  PatternNodeId a = p.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = p.AddNode(dict.Intern("b"), "b");
  PatternNodeId c = p.AddNode(dict.Intern("c"), "c");
  (void)p.AddEdge(a, b, dict.Intern("e"), Quantifier::Negation());
  (void)p.AddEdge(a, c, dict.Intern("e"), Quantifier::Negation());
  (void)p.set_focus(a);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PatternTest, RadiusUndirected) {
  LabelDict dict;
  Pattern p = Chain3(dict);
  EXPECT_EQ(p.Radius(), 2);
  (void)p.set_focus(1);
  EXPECT_EQ(p.Radius(), 1);  // middle node reaches both ends in one hop
}

TEST(PatternTest, EqualityOperator) {
  LabelDict dict;
  Pattern a = Chain3(dict);
  Pattern b = Chain3(dict);
  EXPECT_TRUE(a == b);
  Pattern c = Chain3(dict, Quantifier::Numeric(QuantOp::kGe, 2));
  EXPECT_FALSE(a == c);
}

TEST(PatternTest, ToStringMentionsQuantifier) {
  LabelDict dict;
  Pattern p = Chain3(dict, Quantifier::Ratio(QuantOp::kGe, 80));
  std::string text = p.ToString(&dict);
  EXPECT_NE(text.find(">=80%"), std::string::npos);
  EXPECT_NE(text.find("(focus)"), std::string::npos);
}

}  // namespace
}  // namespace qgp
