#include "core/candidate_space.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/paper_graphs.h"

namespace qgp {
namespace {

TEST(CandidateSpaceTest, RequiresPositivePattern) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  MatchOptions opts;
  EXPECT_FALSE(CandidateSpace::Build(q3, g, opts, nullptr).ok());
}

TEST(CandidateSpaceTest, GoodSetsPruneByUpperBound) {
  // Example 5: with >=2 on (xo,z1), x1 (one followee) leaves the good
  // focus set but stays a stratified candidate.
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok());
  MatchOptions opts;
  auto cs = CandidateSpace::Build(pi.value().first, g, opts, nullptr);
  ASSERT_TRUE(cs.ok());
  EXPECT_TRUE(cs->InStratified(0, ids.x1));
  EXPECT_FALSE(cs->InGood(0, ids.x1));
  EXPECT_TRUE(cs->InGood(0, ids.x2));
  EXPECT_TRUE(cs->InGood(0, ids.x3));
}

TEST(CandidateSpaceTest, QuantifierPruningCanBeDisabled) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok());
  MatchOptions opts;
  opts.use_quantifier_pruning = false;
  auto cs = CandidateSpace::Build(pi.value().first, g, opts, nullptr);
  ASSERT_TRUE(cs.ok());
  EXPECT_TRUE(cs->InGood(0, ids.x1));  // no pruning: good == stratified
}

TEST(CandidateSpaceTest, SimulationTightensStratifiedSets) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions with_sim;
  auto cs1 = CandidateSpace::Build(q2, g, with_sim, nullptr);
  ASSERT_TRUE(cs1.ok());
  MatchOptions without;
  without.use_simulation = false;
  auto cs2 = CandidateSpace::Build(q2, g, without, nullptr);
  ASSERT_TRUE(cs2.ok());
  // Simulation result must be a subset of the degree-refined result.
  for (PatternNodeId u = 0; u < q2.num_nodes(); ++u) {
    for (VertexId v : cs1->stratified(u)) {
      EXPECT_TRUE(cs2->InStratified(u, v));
    }
    EXPECT_LE(cs1->stratified(u).size(), cs2->stratified(u).size());
  }
}

TEST(CandidateSpaceTest, StatsRecordPruning) {
  Graph g = testing::BuildG1(nullptr);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  MatchStats stats;
  auto cs = CandidateSpace::Build(q2, g, opts, &stats);
  ASSERT_TRUE(cs.ok());
  EXPECT_GT(stats.candidates_initial, 0u);
  EXPECT_GT(stats.candidates_pruned, 0u);
}

TEST(CandidateSpaceTest, RestrictToBallIntersects) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  auto cs = CandidateSpace::Build(q2, g, opts, nullptr);
  ASSERT_TRUE(cs.ok());
  std::vector<VertexId> ball{ids.x2, ids.v1, ids.v2, ids.redmi};
  std::sort(ball.begin(), ball.end());
  DynamicBitset ball_bits(g.num_vertices());
  for (VertexId v : ball) ball_bits.Set(v);
  auto local = [&](PatternNodeId u) {
    const BitsetView view = cs->StratifiedView(u, ball, ball_bits.words());
    std::vector<VertexId> members;
    view.Decode(members);
    EXPECT_EQ(view.size, members.size());
    return members;
  };
  EXPECT_EQ(local(0), (std::vector<VertexId>{ids.x2}));
  EXPECT_EQ(local(1), (std::vector<VertexId>{ids.v1, ids.v2}));
  EXPECT_EQ(local(2), (std::vector<VertexId>{ids.redmi}));
  // Without a ball the view is Cπ(u) itself.
  for (PatternNodeId u = 0; u < 3; ++u) {
    std::vector<VertexId> members;
    cs->StratifiedView(u).Decode(members);
    EXPECT_TRUE(std::ranges::equal(members, cs->stratified(u)));
  }
}

TEST(CandidateSpaceTest, UnsatisfiableRatioPrunesVertex) {
  // =40% is unsatisfiable at vertices whose label-degree is not a
  // multiple of 5 (e.g. 3 children).
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  LabelDict& dict = g.mutable_dict();
  Pattern p;
  PatternNodeId xo = p.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z = p.AddNode(dict.Intern("person"), "z");
  (void)p.AddEdge(xo, z, dict.Intern("follow"),
                  Quantifier::Ratio(QuantOp::kEq, 40.0));
  (void)p.set_focus(xo);
  MatchOptions opts;
  auto cs = CandidateSpace::Build(p, g, opts, nullptr);
  ASSERT_TRUE(cs.ok());
  // x3 has 3 followees: 40% of 3 is fractional -> not good.
  EXPECT_FALSE(cs->InGood(0, ids.x3));
}

}  // namespace
}  // namespace qgp
