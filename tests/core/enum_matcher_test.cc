#include "core/enum_matcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/cancellation.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

TEST(EnumMatcherTest, MatchesPaperAnswers) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  auto answers = EnumMatcher::Evaluate(q2, g);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids.x1, ids.x2}));
}

TEST(EnumMatcherTest, FocusSubset) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  std::vector<VertexId> subset{ids.x1};
  auto answers =
      EnumMatcher::EvaluatePositive(q2, g, opts, nullptr, subset);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value(), (AnswerSet{ids.x1}));
}

// A focus subset restricts Π(Q) and every Π(Q⁺ᵉ) alike, so evaluating
// over it yields the full answer set cut to the subset; an empty span is
// the full evaluation, work counters included.
TEST(EnumMatcherTest, NegatedPatternsOverFocusSubset) {
  size_t checked = 0;
  size_t answers_seen = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SyntheticConfig gc;
    gc.num_vertices = 60;
    gc.num_edges = 180;
    gc.num_node_labels = 4;
    gc.num_edge_labels = 3;
    gc.seed = seed;
    Graph g = std::move(GenerateSynthetic(gc)).value();
    PatternGenConfig pc;
    pc.num_nodes = 4;
    pc.num_edges = 4;
    pc.num_quantified = 1;
    pc.num_negated = 1;
    MatchOptions opts;
    opts.max_isomorphisms = 2'000'000;
    std::vector<VertexId> subset;
    for (VertexId v = seed % 3; v < g.num_vertices(); v += 3) {
      subset.push_back(v);
    }
    for (const Pattern& q : GeneratePatternSuite(g, 4, pc, seed * 7 + 1)) {
      if (q.IsPositive()) continue;
      MatchStats full_stats;
      auto full = EnumMatcher::Evaluate(q, g, opts, &full_stats);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      auto restricted =
          EnumMatcher::Evaluate(q, g, opts, nullptr, nullptr, subset);
      ASSERT_TRUE(restricted.ok()) << restricted.status().ToString();
      EXPECT_EQ(restricted.value(), SetIntersection(full.value(), subset));

      MatchStats all_stats;
      auto all = EnumMatcher::Evaluate(q, g, opts, &all_stats, nullptr, {});
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(all.value(), full.value());
      EXPECT_EQ(all_stats.isomorphisms_enumerated,
                full_stats.isomorphisms_enumerated);
      EXPECT_EQ(all_stats.search_extensions, full_stats.search_extensions);
      EXPECT_EQ(all_stats.candidates_initial, full_stats.candidates_initial);
      EXPECT_EQ(all_stats.candidates_pruned, full_stats.candidates_pruned);
      EXPECT_EQ(all_stats.focus_candidates_checked,
                full_stats.focus_candidates_checked);
      ++checked;
      answers_seen += full.value().size();
    }
  }
  EXPECT_GE(checked, 4u);
  EXPECT_GT(answers_seen, 0u);
}

TEST(EnumMatcherTest, CapReturnsError) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchOptions opts;
  opts.max_isomorphisms = 1;
  // x2 and x3 have two+ embeddings each; the cap must trip.
  auto answers = EnumMatcher::Evaluate(q2, g, opts);
  EXPECT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInternal);
}

TEST(EnumMatcherTest, EnumeratesMoreThanQMatch) {
  // The baseline enumerates every embedding; DMatch short-circuits.
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  Pattern q2 = testing::BuildQ2(g.mutable_dict());
  MatchStats enum_stats;
  ASSERT_TRUE(EnumMatcher::Evaluate(q2, g, {}, &enum_stats).ok());
  EXPECT_GT(enum_stats.isomorphisms_enumerated, 0u);
}

TEST(EnumMatcherTest, RejectsNegativePatternInPositiveApi) {
  Graph g = testing::BuildG1(nullptr);
  Pattern q3 = testing::BuildQ3(g.mutable_dict(), 2);
  EXPECT_FALSE(EnumMatcher::EvaluatePositive(q3, g, {}, nullptr).ok());
}

// One focus whose enumeration runs far past its deadline: x has 40
// children and the pattern pins four distinct ones, 40·39·38·37 ≈ 2.2M
// embeddings. The deadline must stop the run inside the focus, with
// the token's status, long before the isomorphism cap.
TEST(EnumMatcherTest, DeadlineStopsASingleFocusEnumeration) {
  GraphBuilder b;
  const VertexId x = b.AddVertex("p");
  for (int i = 0; i < 40; ++i) (void)b.AddEdge(x, b.AddVertex("c"), "f");
  Graph g = std::move(b).Build().value();
  LabelDict& dict = g.mutable_dict();
  Pattern q;
  const PatternNodeId xo = q.AddNode(dict.Intern("p"), "xo");
  for (int i = 0; i < 4; ++i) {
    (void)q.AddEdge(xo, q.AddNode(dict.Intern("c"), "y" + std::to_string(i)),
                    dict.Intern("f"));
  }
  (void)q.set_focus(xo);

  CancelToken token(CancelToken::Clock::now() + std::chrono::milliseconds(10));
  MatchOptions options;
  options.cancel = &token;
  options.max_isomorphisms = 2'000'000;
  MatchStats stats;
  auto res = EnumMatcher::Evaluate(q, g, options, &stats);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
      << res.status().ToString();
  EXPECT_EQ(stats.focus_candidates_checked, 1u);
  EXPECT_LT(stats.isomorphisms_enumerated, options.max_isomorphisms);
}

}  // namespace
}  // namespace qgp
