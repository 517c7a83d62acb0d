// PEnum (§7) correctness: the parallel enumerate-then-verify baseline
// must return exactly the sequential EnumMatcher / QMatch answers over
// any d-hop preserving partition (Lemma 9 applies to it unchanged).
#include "parallel/penum.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/thread_pool.h"
#include "core/enum_matcher.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "parallel/dpar.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

using qgp::testing::BuildG1;
using qgp::testing::BuildG2;
using qgp::testing::BuildQ3;
using qgp::testing::BuildQ4;
using qgp::testing::G1Ids;
using qgp::testing::G2Ids;

Partition MustPartition(const Graph& g, size_t fragments, int d) {
  DParConfig dc;
  dc.num_fragments = fragments;
  dc.d = d;
  auto part = DPar(g, dc);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_TRUE(part->Validate(g).ok());
  return std::move(part).value();
}

TEST(PEnumTest, Q3OnPartitionedG1MatchesExample7) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q3 = BuildQ3(g.mutable_dict(), /*p=*/2);
  Partition part = MustPartition(g, 2, 2);
  ParallelConfig cfg;
  auto res = PEnum::Evaluate(q3, part, cfg);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->answers, (AnswerSet{ids.x2}));
}

TEST(PEnumTest, Q4OnPartitionedG2MatchesExample4) {
  G2Ids ids;
  Graph g = BuildG2(&ids);
  Pattern q4 = BuildQ4(g.mutable_dict(), /*p=*/2);
  Partition part = MustPartition(g, 3, q4.Radius());
  ParallelConfig cfg;
  auto res = PEnum::Evaluate(q4, part, cfg);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->answers, (AnswerSet{ids.x5, ids.x6}));
}

TEST(PEnumTest, MatchesSequentialEnumOnGeneratedWorkload) {
  SocialConfig sc;
  sc.num_users = 500;
  sc.community_size = 100;
  Graph g = std::move(GenerateSocialGraph(sc)).value();
  Partition part = MustPartition(g, 4, 2);
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.percent = 40.0;
  pc.num_negated = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 4, pc, 71);
  ASSERT_FALSE(patterns.empty());
  ParallelConfig cfg;
  size_t usable = 0;
  for (const Pattern& q : patterns) {
    if (q.Radius() > 2) continue;
    ++usable;
    auto sequential = EnumMatcher::Evaluate(q, g);
    auto qmatch = QMatch::Evaluate(q, g);
    auto penum = PEnum::Evaluate(q, part, cfg);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    ASSERT_TRUE(qmatch.ok());
    ASSERT_TRUE(penum.ok()) << penum.status().ToString();
    EXPECT_EQ(penum->answers, *sequential);
    EXPECT_EQ(penum->answers, *qmatch);
  }
  EXPECT_GT(usable, 0u);
}

TEST(PEnumTest, ThreadAndSimulatedModesAgree) {
  SocialConfig sc;
  sc.num_users = 400;
  sc.community_size = 80;
  Graph g = std::move(GenerateSocialGraph(sc)).value();
  Partition part = MustPartition(g, 3, 2);
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = 0;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 2, pc, 83);
  ASSERT_FALSE(patterns.empty());
  size_t usable = 0;
  for (const Pattern& q : patterns) {
    if (q.Radius() > 2) continue;
    ++usable;
    ThreadPool pool(3);
    ParallelConfig sim;
    sim.mode = ExecutionMode::kSimulated;
    ParallelConfig thr;
    thr.mode = ExecutionMode::kThreads;
    thr.pool = &pool;
    auto a = PEnum::Evaluate(q, part, sim);
    auto b = PEnum::Evaluate(q, part, thr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->answers, b->answers);
  }
  EXPECT_GT(usable, 0u);
}

TEST(PEnumTest, RejectsPatternWiderThanD) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Partition part = MustPartition(g, 2, 1);
  // Q3 has radius 2 (xo -> z1 -> r) > d = 1.
  Pattern q3 = BuildQ3(g.mutable_dict(), 2);
  ASSERT_GT(q3.Radius(), 1);
  ParallelConfig cfg;
  EXPECT_FALSE(PEnum::Evaluate(q3, part, cfg).ok());
}

TEST(PEnumTest, ReportsTimingDecomposition) {
  G2Ids ids;
  Graph g = BuildG2(&ids);
  Pattern q4 = BuildQ4(g.mutable_dict(), 2);
  Partition part = MustPartition(g, 3, q4.Radius());
  ParallelConfig cfg;
  auto res = PEnum::Evaluate(q4, part, cfg);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->fragment_seconds.size(), 3u);
  double max_fragment = *std::max_element(res->fragment_seconds.begin(),
                                          res->fragment_seconds.end());
  EXPECT_GE(res->parallel_seconds, 0.0);
  EXPECT_GE(res->total_work_seconds, max_fragment);
}

}  // namespace
}  // namespace qgp
