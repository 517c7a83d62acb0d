// Pinned regression: a match sitting in the OVERLAP of two fragments'
// border balls must be reported exactly once by the sharded engine, and
// a counting quantifier (>= p) whose witness edges cross the cut must
// not double-count. The partition is hand-built (not DPar) so the
// overlap topology is pinned: both fragments replicate the paper's
// Fig. 2 G1 hub (Redmi 2A) and the shared followee v2, the focus
// candidates are split across the two fragments' owned sets, and the
// replicated region is large enough that a buggy "evaluate everything
// local" shard would report the same focus from both sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/query_engine.h"
#include "graph/graph_algorithms.h"
#include "parallel/partition.h"
#include "shard/sharded_engine.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

using shard::ShardedEngine;
using shard::ShardedOptions;

// Builds one fragment that owns `owned` and replicates every owned
// vertex's d-hop ball (the minimal local graph Validate accepts).
Fragment MakeFragment(const Graph& g, std::vector<VertexId> owned, int d) {
  std::vector<VertexId> region;
  for (VertexId v : owned) {
    std::vector<VertexId> ball = KHopBall(g, v, d);
    region.insert(region.end(), ball.begin(), ball.end());
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  Fragment f;
  f.sub = std::move(ExtractInducedSubgraph(g, region)).value();
  std::sort(owned.begin(), owned.end());
  f.owned_global = owned;
  for (VertexId v : owned) f.owned_local.push_back(f.sub.global_to_local.at(v));
  return f;
}

Partition MakeTwoFragmentPartition(const Graph& g,
                                   std::vector<VertexId> owned0,
                                   std::vector<VertexId> owned1, int d) {
  Partition p;
  p.d = d;
  p.base_region.assign(g.num_vertices(), 0);
  for (VertexId v : owned1) p.base_region[v] = 1;
  p.fragments.push_back(MakeFragment(g, std::move(owned0), d));
  p.fragments.push_back(MakeFragment(g, std::move(owned1), d));
  return p;
}

// Asserts each answer was contributed by exactly one shard: the merged
// set is canonical (Canonicalize dedups), so a duplicate would make the
// slices' counts sum past it. This is the assertion that actually pins
// exactly-once.
void ExpectDisjointSlices(const shard::ShardedOutcome& out) {
  size_t contributed = 0;
  for (const auto& slice : out.shards) {
    ASSERT_TRUE(slice.ok);
    contributed += slice.answer_count;
  }
  EXPECT_EQ(contributed, out.answers.size())
      << "an answer was reported by more than one shard";
}

class ShardBorderDedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = testing::BuildG1(&ids_);
    // Split the focus candidates across the cut: fragment 0 owns x1, x2
    // and the early followees; fragment 1 owns x3, the rest, and the
    // hub. d = 2 covers the xo -> z -> redmi pattern radius.
    partition_ = MakeTwoFragmentPartition(
        graph_, {ids_.x1, ids_.x2, ids_.v0, ids_.v1},
        {ids_.x3, ids_.v2, ids_.v3, ids_.v4, ids_.redmi}, /*d=*/2);
    ASSERT_TRUE(partition_.Validate(graph_).ok());

    // Pinned overlap precondition: the shared followee v2 and the hub
    // are replicated in BOTH fragments (x2 follows v2 but fragment 1
    // owns it; everything recommends the hub). If a refactor shrinks
    // the replication so this stops holding, the test is no longer
    // exercising dedup and must be rebuilt.
    for (const Fragment& f : partition_.fragments) {
      EXPECT_TRUE(f.sub.global_to_local.count(ids_.v2) == 1);
      EXPECT_TRUE(f.sub.global_to_local.count(ids_.redmi) == 1);
    }
  }

  Result<shard::ShardedOutcome> Run(const Pattern& pattern) {
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.d = 2;
    sopts.engine.num_threads = 1;
    auto sharded =
        ShardedEngine::Create(graph_, partition_, sopts);  // copies
    if (!sharded.ok()) return sharded.status();
    QuerySpec spec;
    spec.pattern = pattern;
    auto out = (*sharded)->Submit(spec);
    if (out.ok()) ExpectDisjointSlices(*out);
    return out;
  }

  Graph graph_;
  testing::G1Ids ids_;
  Partition partition_;
};

// Q2 (universal follow -> recom): the paper's Example 4 answer is
// {x1, x2}. Both foci are owned by fragment 0, but x2's witnesses
// (v1, v2, redmi) straddle the cut — v2 and redmi live in fragment 1's
// base. Exactly once, and identical to the whole-graph engine.
TEST_F(ShardBorderDedupTest, UniversalAcrossCutExactlyOnce) {
  Pattern q2 = testing::BuildQ2(graph_.mutable_dict());
  auto out = Run(q2);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->answers, (AnswerSet{ids_.x1, ids_.x2}));

  QueryEngine single(&graph_);
  QuerySpec spec;
  spec.pattern = q2;
  auto want = single.Submit(spec);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(out->answers, want->answers);
}

// Q3's positive part with >= 2: Π(Q3)(xo, G1) = {x2, x3} (Example 7).
// x2 and x3 are owned by DIFFERENT fragments, and x3's three follow
// edges land on v2/v3/v4 whose recom/bad_rating edges converge on the
// replicated hub. A double-count of the >= 2 follow quantifier across
// the cut (or an unowned-focus leak) changes this answer set.
TEST_F(ShardBorderDedupTest, CountingQuantifierAcrossCutNotDoubleCounted) {
  Pattern q3 = testing::BuildQ3(graph_.mutable_dict(), /*p=*/2);
  auto out = Run(q3);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Full Q3 (with the negated bad-rating branch) keeps only x2.
  EXPECT_EQ(out->answers, (AnswerSet{ids_.x2}));

  QueryEngine single(&graph_);
  QuerySpec spec;
  spec.pattern = q3;
  auto want = single.Submit(spec);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(out->answers, want->answers);

  // Per-slice attribution is pinned too: the x2 answer must come from
  // its owner (fragment 0), never from fragment 1's replica.
  ASSERT_EQ(out->shards.size(), 2u);
  EXPECT_EQ(out->shards[0].answer_count, 1u);
  EXPECT_EQ(out->shards[1].answer_count, 0u);
}

// Raising the threshold to >= 3 flips x2 out (it follows only two
// people) while x3 still passes the count but fails the negation — the
// count across the cut is exact in both directions, not just "at least
// once".
TEST_F(ShardBorderDedupTest, CountingThresholdExactAcrossCut) {
  Pattern q3 = testing::BuildQ3(graph_.mutable_dict(), /*p=*/3);
  auto out = Run(q3);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  QueryEngine single(&graph_);
  QuerySpec spec;
  spec.pattern = q3;
  auto want = single.Submit(spec);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(out->answers, want->answers);
  EXPECT_TRUE(std::find(out->answers.begin(), out->answers.end(), ids_.x2) ==
              out->answers.end());
}

}  // namespace
}  // namespace qgp
