// Edge cases of the CSR substrate that the matcher relies on: labels
// nothing carries, parallel edges with distinct labels, single-vertex
// graphs, and the (label, endpoint) sort invariant under which filtering
// a label slice by a bit test yields an ascending, duplicate-free
// frontier.
#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"
#include "gen/synthetic_gen.h"

namespace qgp {
namespace {

TEST(GraphEdgeCases, LabelsNothingCarries) {
  GraphBuilder b;
  VertexId person = b.AddVertex("person");
  VertexId city = b.AddVertex("city");
  ASSERT_TRUE(b.AddEdge(person, city, "lives_in").ok());
  Label ghost = b.InternLabel("ghost");  // interned but never used
  Graph g = std::move(b).Build().value();

  EXPECT_TRUE(g.OutNeighborsWithLabel(person, ghost).empty());
  EXPECT_TRUE(g.InNeighborsWithLabel(city, ghost).empty());
  EXPECT_EQ(g.OutDegreeWithLabel(person, ghost), 0u);
  EXPECT_FALSE(g.HasEdge(person, city, ghost));
  EXPECT_TRUE(g.VerticesWithLabel(ghost).empty());
  EXPECT_EQ(g.NumVerticesWithLabel(ghost), 0u);
  // Label ids past the dictionary must degrade to empty, not crash.
  EXPECT_TRUE(g.VerticesWithLabel(kInvalidLabel).empty());
}

TEST(GraphEdgeCases, ParallelEdgesWithDistinctLabels) {
  GraphBuilder b;
  VertexId a = b.AddVertex("n");
  VertexId c = b.AddVertex("n");
  ASSERT_TRUE(b.AddEdge(a, c, "x").ok());
  ASSERT_TRUE(b.AddEdge(a, c, "y").ok());
  ASSERT_TRUE(b.AddEdge(a, c, "x").ok());  // exact duplicate: dropped
  Graph g = std::move(b).Build().value();

  Label x = g.dict().Find("x");
  Label y = g.dict().Find("y");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(a), 2u);
  EXPECT_EQ(g.OutNeighborsWithLabel(a, x).size(), 1u);
  EXPECT_EQ(g.OutNeighborsWithLabel(a, y).size(), 1u);
  EXPECT_TRUE(g.HasEdge(a, c, x));
  EXPECT_TRUE(g.HasEdge(a, c, y));
  EXPECT_FALSE(g.HasEdge(c, a, x));
  EXPECT_EQ(g.InNeighborsWithLabel(c, x).size(), 1u);
  EXPECT_EQ(g.InNeighborsWithLabel(c, y).size(), 1u);
}

TEST(GraphEdgeCases, SingleVertexGraph) {
  GraphBuilder b;
  VertexId v = b.AddVertex("solo");
  Graph g = std::move(b).Build().value();

  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutNeighbors(v).empty());
  EXPECT_TRUE(g.InNeighbors(v).empty());
  Label solo = g.dict().Find("solo");
  ASSERT_EQ(g.VerticesWithLabel(solo).size(), 1u);
  EXPECT_EQ(g.VerticesWithLabel(solo)[0], v);
  EXPECT_FALSE(g.HasEdge(v, v, solo));
  std::vector<VertexId> ball = KHopBall(g, v, 3);
  EXPECT_EQ(ball, std::vector<VertexId>{v});
}

TEST(GraphEdgeCases, SelfLoop) {
  GraphBuilder b;
  VertexId v = b.AddVertex("n");
  ASSERT_TRUE(b.AddEdge(v, v, "loop").ok());
  Graph g = std::move(b).Build().value();
  Label loop = g.dict().Find("loop");
  EXPECT_TRUE(g.HasEdge(v, v, loop));
  ASSERT_EQ(g.OutNeighborsWithLabel(v, loop).size(), 1u);
  EXPECT_EQ(g.OutNeighborsWithLabel(v, loop)[0].v, v);
}

// The invariant the matcher's slice filter assumes: every adjacency list
// is sorted by (label, endpoint), so each per-label slice is a strictly
// ascending endpoint run (strict because exact duplicates are deduped).
TEST(GraphEdgeCases, LabelSlicesAreSortedEndpointRuns) {
  SyntheticConfig gc;
  gc.num_vertices = 300;
  gc.num_edges = 1200;
  gc.num_node_labels = 8;
  gc.num_edge_labels = 5;
  gc.seed = 17;
  Graph g = std::move(GenerateSynthetic(gc)).value();

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::span<const Neighbor> out = g.OutNeighbors(v);
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_TRUE(out[i - 1].label < out[i].label ||
                  (out[i - 1].label == out[i].label &&
                   out[i - 1].v < out[i].v))
          << "out-list of " << v << " not sorted by (label, dst)";
    }
    for (Label l = 0; l < g.dict().size(); ++l) {
      std::span<const Neighbor> slice = g.OutNeighborsWithLabel(v, l);
      for (const Neighbor& n : slice) ASSERT_EQ(n.label, l);
      for (size_t i = 1; i < slice.size(); ++i) {
        ASSERT_LT(slice[i - 1].v, slice[i].v);
      }
    }
  }
}

}  // namespace
}  // namespace qgp
