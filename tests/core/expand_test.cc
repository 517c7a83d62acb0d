#include "core/expand.h"

#include <gtest/gtest.h>

#include "core/naive_matcher.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

Pattern TwoLevelTree(LabelDict& dict, uint32_t p_children) {
  Pattern q;
  PatternNodeId r = q.AddNode(dict.Intern("r"), "r");
  PatternNodeId z = q.AddNode(dict.Intern("z"), "z");
  PatternNodeId w = q.AddNode(dict.Intern("w"), "w");
  (void)q.AddEdge(r, z, dict.Intern("e"),
                  Quantifier::Numeric(QuantOp::kGe, p_children));
  (void)q.AddEdge(z, w, dict.Intern("f"));
  (void)q.set_focus(r);
  return q;
}

TEST(ExpandTest, CopiesSubtrees) {
  LabelDict dict;
  Pattern q = TwoLevelTree(dict, 2);
  auto expanded = ExpandNumericCopies(q);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  // Root + 2 copies of (z -> w): 5 nodes, 4 edges, all existential.
  EXPECT_EQ(expanded->num_nodes(), 5u);
  EXPECT_EQ(expanded->num_edges(), 4u);
  EXPECT_TRUE(expanded->IsConventional());
}

TEST(ExpandTest, RejectsNonTreeAndNonGe) {
  LabelDict dict;
  // Cycle: not an out-tree.
  Pattern cyc;
  PatternNodeId a = cyc.AddNode(dict.Intern("a"), "a");
  PatternNodeId b = cyc.AddNode(dict.Intern("b"), "b");
  (void)cyc.AddEdge(a, b, dict.Intern("e"));
  (void)cyc.AddEdge(b, a, dict.Intern("e"));
  (void)cyc.set_focus(a);
  EXPECT_EQ(ExpandNumericCopies(cyc).status().code(),
            StatusCode::kUnimplemented);

  // Ratio quantifier unsupported.
  Pattern ratio;
  PatternNodeId r = ratio.AddNode(dict.Intern("a"), "a");
  PatternNodeId z = ratio.AddNode(dict.Intern("b"), "b");
  (void)ratio.AddEdge(r, z, dict.Intern("e"),
                      Quantifier::Ratio(QuantOp::kGe, 50.0));
  (void)ratio.set_focus(r);
  EXPECT_EQ(ExpandNumericCopies(ratio).status().code(),
            StatusCode::kUnimplemented);

  // Negation unsupported.
  Pattern neg;
  PatternNodeId n0 = neg.AddNode(dict.Intern("a"), "a");
  PatternNodeId n1 = neg.AddNode(dict.Intern("b"), "b");
  (void)neg.AddEdge(n0, n1, dict.Intern("e"), Quantifier::Negation());
  (void)neg.set_focus(n0);
  EXPECT_EQ(ExpandNumericCopies(neg).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ExpandTest, DemonstratesLemma3Discrepancy) {
  // Deviation 2 (docs/ARCHITECTURE.md): two z-children share their single
  // w-child. §2.2 counts both z's (answer: root matches); the
  // copy-expansion demands node-disjoint w-witnesses and rejects the root.
  GraphBuilder b;
  VertexId root = b.AddVertex("r");
  VertexId z1 = b.AddVertex("z");
  VertexId z2 = b.AddVertex("z");
  VertexId w = b.AddVertex("w");
  (void)b.AddEdge(root, z1, "e");
  (void)b.AddEdge(root, z2, "e");
  (void)b.AddEdge(z1, w, "f");
  (void)b.AddEdge(z2, w, "f");
  Graph g = std::move(b).Build().value();

  Pattern q = TwoLevelTree(g.mutable_dict(), 2);
  auto original = NaiveMatcher::Evaluate(q, g);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original.value(), (AnswerSet{root}));

  auto expanded = ExpandNumericCopies(q);
  ASSERT_TRUE(expanded.ok());
  auto copied = NaiveMatcher::Evaluate(*expanded, g);
  ASSERT_TRUE(copied.ok());
  EXPECT_TRUE(copied.value().empty());  // the expansion is NOT equivalent
}

TEST(ExpandTest, AgreesWhenWitnessesAreDisjoint) {
  // With two disjoint w's the two semantics coincide.
  GraphBuilder b;
  VertexId root = b.AddVertex("r");
  VertexId z1 = b.AddVertex("z");
  VertexId z2 = b.AddVertex("z");
  VertexId w1 = b.AddVertex("w");
  VertexId w2 = b.AddVertex("w");
  (void)b.AddEdge(root, z1, "e");
  (void)b.AddEdge(root, z2, "e");
  (void)b.AddEdge(z1, w1, "f");
  (void)b.AddEdge(z2, w2, "f");
  Graph g = std::move(b).Build().value();

  Pattern q = TwoLevelTree(g.mutable_dict(), 2);
  auto original = NaiveMatcher::Evaluate(q, g);
  auto expanded = ExpandNumericCopies(q);
  ASSERT_TRUE(expanded.ok());
  auto copied = NaiveMatcher::Evaluate(*expanded, g);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(original.value(), copied.value());
  EXPECT_EQ(original.value(), (AnswerSet{root}));
}

}  // namespace
}  // namespace qgp
