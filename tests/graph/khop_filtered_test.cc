// The single-source ball: KHopBallsFiltered with one source, against
// hand-computed balls on a hub-and-chain graph.
#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

// Star hub: center 0 with spokes 1..N via label "a", plus a chain
// 0 -b-> N+1 -b-> N+2.
struct HubFixture {
  Graph g;
  Label a, b;
  size_t spokes = 50;

  HubFixture() {
    GraphBuilder builder;
    for (size_t i = 0; i < spokes + 3; ++i) builder.AddVertex("n");
    for (size_t i = 1; i <= spokes; ++i) {
      (void)builder.AddEdge(0, static_cast<VertexId>(i), "a");
    }
    (void)builder.AddEdge(0, static_cast<VertexId>(spokes + 1), "b");
    (void)builder.AddEdge(static_cast<VertexId>(spokes + 1),
                          static_cast<VertexId>(spokes + 2), "b");
    g = std::move(builder).Build().value();
    a = g.dict().Find("a");
    b = g.dict().Find("b");
  }

  DynamicBitset Only(Label l) const {
    DynamicBitset bits(g.dict().size());
    bits.Set(l);
    return bits;
  }
};

// KHopBallsFiltered with `src` as its one source: the ball (partial when
// the hub guard tripped) and, in *complete, whether it stayed complete.
std::vector<VertexId> KHopBallFiltered(const Graph& g, VertexId src,
                                       int depth,
                                       const DynamicBitset& edge_labels,
                                       size_t max_size, bool* complete) {
  MultiBallScratch scratch;
  KHopBallsFiltered(g, {&src, 1}, depth,
                    BallFilter::Uniform(depth, edge_labels), max_size,
                    &scratch);
  *complete = (scratch.complete & 1ULL) != 0;
  std::vector<VertexId> ball;
  scratch.AppendBallSorted(0, ball);
  return ball;
}

TEST(KHopBallFilteredTest, LabelFilterSkipsOtherEdges) {
  HubFixture f;
  bool complete = false;
  auto ball =
      KHopBallFiltered(f.g, 0, 2, f.Only(f.b), 1000, &complete);
  EXPECT_TRUE(complete);
  // Only the b-chain is reachable.
  EXPECT_EQ(ball, (std::vector<VertexId>{
                      0, static_cast<VertexId>(f.spokes + 1),
                      static_cast<VertexId>(f.spokes + 2)}));
}

TEST(KHopBallFilteredTest, AllLabelsMatchesUnfilteredBall) {
  HubFixture f;
  DynamicBitset all(f.g.dict().size());
  all.Set(f.a);
  all.Set(f.b);
  bool complete = false;
  auto filtered = KHopBallFiltered(f.g, 0, 2, all, 1'000'000, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(filtered, KHopBall(f.g, 0, 2));
}

TEST(KHopBallFilteredTest, HubGuardAborts) {
  HubFixture f;
  bool complete = true;
  auto ball = KHopBallFiltered(f.g, 0, 2, f.Only(f.a), 10, &complete);
  EXPECT_FALSE(complete);
  EXPECT_GT(ball.size(), 10u);  // partial, just past the limit
  EXPECT_LT(ball.size(), f.spokes + 1);
}

TEST(KHopBallFilteredTest, DepthZero) {
  HubFixture f;
  bool complete = false;
  auto ball = KHopBallFiltered(f.g, 3, 0, f.Only(f.a), 10, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(ball, (std::vector<VertexId>{3}));
}

TEST(KHopBallFilteredTest, TraversesEdgesBackwards) {
  HubFixture f;
  bool complete = false;
  // From a spoke, the hub is one undirected hop away via an in-edge.
  auto ball = KHopBallFiltered(f.g, 1, 1, f.Only(f.a), 1000, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(ball, (std::vector<VertexId>{0, 1}));
}

}  // namespace
}  // namespace qgp
