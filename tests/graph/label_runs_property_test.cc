// Property suite for the label-run directories behind Graph's label
// slices: on random graphs and through random delta sequences (edge adds
// and removes, appended vertices, tombstones, edge labels new to the
// dictionary), every label slice, label degree and HasEdge answer must
// equal a plain filter over OutNeighbors/InNeighbors. Queries cover labels
// absent at a vertex, label ids at and past dict().size(), kInvalidLabel,
// isolated vertices and a vertex that carries every edge label.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"

namespace qgp {
namespace {

constexpr int kEdgeLabels = 6;

std::string EdgeLabelName(size_t i) { return "e" + std::to_string(i); }

// Vertex 0 carries every edge label on both sides; the last vertex is
// isolated.
Graph RandomGraph(std::mt19937& rng, size_t n, size_t m) {
  GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) builder.AddVertex(i % 2 == 0 ? "p" : "q");
  for (int l = 0; l < kEdgeLabels; ++l) {
    const VertexId w = static_cast<VertexId>(1 + rng() % (n - 2));
    EXPECT_TRUE(builder.AddEdge(0, w, EdgeLabelName(l)).ok());
    EXPECT_TRUE(builder.AddEdge(w, 0, EdgeLabelName(l)).ok());
  }
  for (size_t e = 0; e < m; ++e) {
    const VertexId u = static_cast<VertexId>(rng() % (n - 1));
    const VertexId v = static_cast<VertexId>(rng() % (n - 1));
    EXPECT_TRUE(
        builder.AddEdge(u, v, EdgeLabelName(rng() % kEdgeLabels)).ok());
  }
  return std::move(builder).Build().value();
}

std::vector<Neighbor> Filter(std::span<const Neighbor> all, Label label) {
  std::vector<Neighbor> out;
  for (const Neighbor& nbr : all) {
    if (nbr.label == label) out.push_back(nbr);
  }
  return out;
}

// Labels to query: every dictionary id, two past its end, and the
// invalid sentinel.
std::vector<Label> QueryLabels(const Graph& g) {
  std::vector<Label> labels;
  for (Label l = 0; l < g.dict().size() + 2; ++l) labels.push_back(l);
  labels.push_back(kInvalidLabel);
  return labels;
}

// A label slice must be the reference filter, and lie inside the
// vertex's adjacency.
void ExpectSlice(std::span<const Neighbor> all,
                 std::span<const Neighbor> slice, Label label,
                 const std::string& where) {
  const std::vector<Neighbor> want = Filter(all, label);
  ASSERT_EQ(std::vector<Neighbor>(slice.begin(), slice.end()), want) << where;
  if (!slice.empty()) {
    EXPECT_GE(slice.data(), all.data()) << where;
    EXPECT_LE(slice.data() + slice.size(), all.data() + all.size()) << where;
  }
}

void ExpectMatchesReference(const Graph& g) {
  const Status valid = g.ValidateInvariants();
  ASSERT_TRUE(valid.ok()) << valid.message();
  const std::vector<Label> labels = QueryLabels(g);
  const size_t n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (Label l : labels) {
      const std::string where =
          "v=" + std::to_string(v) + " label=" + std::to_string(l);
      ExpectSlice(g.OutNeighbors(v), g.OutNeighborsWithLabel(v, l), l,
                  "out " + where);
      ExpectSlice(g.InNeighbors(v), g.InNeighborsWithLabel(v, l), l,
                  "in " + where);
      const std::vector<Neighbor> out = Filter(g.OutNeighbors(v), l);
      EXPECT_EQ(g.OutDegreeWithLabel(v, l), out.size()) << where;
      EXPECT_EQ(g.InDegreeWithLabel(v, l),
                Filter(g.InNeighbors(v), l).size())
          << where;
      std::vector<bool> has(n, false);
      for (const Neighbor& nbr : out) has[nbr.v] = true;
      for (VertexId w = 0; w < n; ++w) {
        ASSERT_EQ(g.HasEdge(v, w, l), has[w]) << where << " dst=" << w;
      }
    }
  }
}

GraphDelta RandomDelta(std::mt19937& rng, Graph& g) {
  GraphDelta d;
  const size_t old_n = g.num_vertices();
  auto alive = [&](VertexId v) {
    return v >= old_n || g.vertex_label(v) != kInvalidLabel;
  };
  const size_t appended = rng() % 3;
  for (size_t i = 0; i < appended; ++i) {
    d.add_vertices.push_back(g.vertex_label(0));
  }
  const size_t new_n = old_n + appended;
  // Removals: existing edges of live vertices, by sampled source.
  for (int i = 0; i < 4; ++i) {
    const VertexId u = static_cast<VertexId>(rng() % old_n);
    std::span<const Neighbor> out = g.OutNeighbors(u);
    if (out.empty()) continue;
    const Neighbor& nbr = out[rng() % out.size()];
    d.remove_edges.push_back(EdgeTriple{u, nbr.v, nbr.label});
  }
  // Additions, into appended vertices too; now and then with a label the
  // dictionary has never held.
  for (int i = 0; i < 6; ++i) {
    const VertexId u = static_cast<VertexId>(rng() % new_n);
    const VertexId v = static_cast<VertexId>(rng() % new_n);
    if (!alive(u) || !alive(v)) continue;
    Label label = g.dict().Find(EdgeLabelName(rng() % kEdgeLabels));
    if (rng() % 8 == 0) {
      label =
          g.mutable_dict().Intern("fresh" + std::to_string(g.dict().size()));
    }
    d.add_edges.push_back(EdgeTriple{u, v, label});
  }
  // Now and then a tombstone, never vertex 0.
  if (rng() % 3 == 0) {
    const VertexId v = static_cast<VertexId>(1 + rng() % (new_n - 1));
    if (alive(v)) d.remove_vertices.push_back(v);
  }
  return d;
}

TEST(LabelRunsPropertyTest, BuiltGraphsMatchReferenceFilter) {
  std::mt19937 rng(20160626);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng() % 30;
    const Graph g = RandomGraph(rng, n, rng() % (4 * n));
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMatchesReference(g);
    EXPECT_EQ(g.OutDegree(n - 1) + g.InDegree(n - 1), 0u);
    for (int l = 0; l < kEdgeLabels; ++l) {
      const Label label = g.dict().Find(EdgeLabelName(l));
      EXPECT_GT(g.OutDegreeWithLabel(0, label), 0u);
      EXPECT_GT(g.InDegreeWithLabel(0, label), 0u);
    }
  }
}

TEST(LabelRunsPropertyTest, DeltaSequencesMatchReferenceFilter) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 4 + rng() % 24;
    Graph g = RandomGraph(rng, n, rng() % (3 * n));
    for (int step = 0; step < 12; ++step) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      const GraphDelta d = RandomDelta(rng, g);
      ASSERT_TRUE(g.ApplyDelta(d).ok());
      ExpectMatchesReference(g);
    }
  }
}

TEST(LabelRunsPropertyTest, EmptyAndEdgelessGraphs) {
  Graph empty = GraphBuilder().Build().value();
  EXPECT_TRUE(empty.ValidateInvariants().ok());

  GraphBuilder builder;
  builder.AddVertex("p");
  builder.AddVertex("p");
  Graph g = std::move(builder).Build().value();
  ExpectMatchesReference(g);
  GraphDelta d;
  d.add_vertices.push_back(g.vertex_label(0));
  d.remove_vertices.push_back(1);
  ASSERT_TRUE(g.ApplyDelta(d).ok());
  ExpectMatchesReference(g);
}

TEST(LabelRunsPropertyTest, MemoryBytesCountsTheRunDirectory) {
  // Vertex 0 has three labels out; vertex 3 has two labels in, vertices 1
  // and 2 one each: 3 + 4 runs of 8 bytes, and V + 1 offsets per side.
  GraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.AddVertex("p");
  ASSERT_TRUE(builder.AddEdge(0, 1, "a").ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, "b").ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, "c").ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, "a").ok());
  const Graph g = std::move(builder).Build().value();
  const size_t csr = 4 * sizeof(Label) + 2 * 4 * sizeof(Neighbor) +
                     2 * 5 * sizeof(uint64_t) + 4 * sizeof(VertexId);
  const size_t runs = (3 + 4) * 8 + 2 * 5 * sizeof(uint64_t);
  EXPECT_EQ(g.MemoryBytes(), csr + runs);
}

}  // namespace
}  // namespace qgp
