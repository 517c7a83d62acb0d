#include "graph/graph_algorithms.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace qgp {
namespace {

// A directed path 0 -> 1 -> 2 -> 3 -> 4 plus an isolated vertex 5.
Graph BuildPathGraph() {
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex("n");
  for (VertexId v = 0; v + 1 < 5; ++v) {
    (void)b.AddEdge(v, v + 1, "e");
  }
  return std::move(b).Build().value();
}

TEST(KHopBallTest, UndirectedBallOnPath) {
  Graph g = BuildPathGraph();
  EXPECT_EQ(KHopBall(g, 2, 0), (std::vector<VertexId>{2}));
  EXPECT_EQ(KHopBall(g, 2, 1), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(KHopBall(g, 2, 2), (std::vector<VertexId>{0, 1, 2, 3, 4}));
  // Direction does not matter: vertex 0 reaches forward.
  EXPECT_EQ(KHopBall(g, 0, 1), (std::vector<VertexId>{0, 1}));
  // Vertex 4 reaches backward.
  EXPECT_EQ(KHopBall(g, 4, 1), (std::vector<VertexId>{3, 4}));
  // Isolated vertex.
  EXPECT_EQ(KHopBall(g, 5, 3), (std::vector<VertexId>{5}));
}

TEST(KHopBallTest, OutOfRangeSource) {
  Graph g = BuildPathGraph();
  EXPECT_TRUE(KHopBall(g, 99, 2).empty());
}

TEST(InducedSubgraphTest, KeepsInternalEdgesOnly) {
  GraphBuilder b;
  VertexId a = b.AddVertex("p");
  VertexId c = b.AddVertex("q");
  VertexId d = b.AddVertex("p");
  VertexId e = b.AddVertex("q");
  (void)b.AddEdge(a, c, "x");
  (void)b.AddEdge(c, d, "x");
  (void)b.AddEdge(d, e, "x");  // crosses the cut, must be dropped
  Graph g = std::move(b).Build().value();

  std::vector<VertexId> keep{a, c, d};
  auto sub = ExtractInducedSubgraph(g, keep);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph.num_vertices(), 3u);
  EXPECT_EQ(sub->graph.num_edges(), 2u);
  // Mappings are mutually inverse.
  for (VertexId lv = 0; lv < sub->graph.num_vertices(); ++lv) {
    VertexId gv = sub->local_to_global[lv];
    EXPECT_EQ(sub->global_to_local.at(gv), lv);
    EXPECT_EQ(sub->graph.vertex_label(lv), g.vertex_label(gv));
  }
}

TEST(InducedSubgraphTest, DuplicateInputIgnored) {
  Graph g = BuildPathGraph();
  std::vector<VertexId> keep{1, 2, 1, 2};
  auto sub = ExtractInducedSubgraph(g, keep);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph.num_vertices(), 2u);
  EXPECT_EQ(sub->graph.num_edges(), 1u);
}

TEST(InducedSubgraphTest, OutOfRangeRejected) {
  Graph g = BuildPathGraph();
  std::vector<VertexId> keep{0, 99};
  EXPECT_FALSE(ExtractInducedSubgraph(g, keep).ok());
}

TEST(InducedSubgraphTest, SharesLabelDictionary) {
  Graph g = BuildPathGraph();
  std::vector<VertexId> keep{0, 1};
  auto sub = ExtractInducedSubgraph(g, keep);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph.dict().Find("e"), g.dict().Find("e"));
  EXPECT_EQ(sub->graph.dict().Find("n"), g.dict().Find("n"));
}

}  // namespace
}  // namespace qgp
