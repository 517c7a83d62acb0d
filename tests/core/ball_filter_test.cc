// The verification ball's per-hop filter (PositiveEvaluator::ball_filter,
// built from the pattern's step edges). It narrows the ball by hop, by
// edge direction and by the labels of the vertices that may expand, and
// must stay exact: every embedding pinned at a focus candidate maps a
// node at distance k from the focus into that candidate's k-hop level.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/dmatch.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

bool InWords(std::span<const uint64_t> words, VertexId v) {
  return ((words[v >> 6] >> (v & 63)) & 1ULL) != 0;
}

std::vector<VertexId> DecodeWords(std::span<const uint64_t> words) {
  std::vector<VertexId> out;
  for (size_t w = 0; w < words.size(); ++w) {
    for (int b = 0; b < 64; ++b) {
      if ((words[w] >> b) & 1ULL) {
        out.push_back(static_cast<VertexId>(w * 64 + b));
      }
    }
  }
  return out;
}

// Every label-preserving edge-preserving map of `q` into `g` with the
// focus on `vx` (injective or not: a superset of the embeddings), by
// brute force over the nodes in id order.
void ForEachEmbedding(const Pattern& q, const Graph& g, VertexId vx,
                      const std::function<void(const std::vector<VertexId>&)>&
                          visit) {
  std::vector<VertexId> h(q.num_nodes(), kInvalidVertex);
  auto consistent = [&](PatternNodeId u) {
    if (g.vertex_label(h[u]) != q.node(u).label) return false;
    for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
      const PatternEdge& edge = q.edge(e);
      if (edge.src > u || edge.dst > u || (edge.src != u && edge.dst != u)) {
        continue;  // checked when its later endpoint is assigned
      }
      if (!g.HasEdge(h[edge.src], h[edge.dst], edge.label)) return false;
    }
    return true;
  };
  std::function<void(PatternNodeId)> assign = [&](PatternNodeId u) {
    if (u == q.num_nodes()) {
      visit(h);
      return;
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == q.focus() && v != vx) continue;
      h[u] = v;
      if (consistent(u)) assign(u + 1);
    }
    h[u] = kInvalidVertex;
  };
  assign(0);
}

// Random dense graph over vertex labels A, B and edge labels x, y, all
// four interned whether used or not; self-loops and parallel edges of
// either label happen.
Graph RandomGraph(std::mt19937& rng) {
  GraphBuilder builder;
  const char* vertex_labels[] = {"A", "B"};
  const char* edge_labels[] = {"x", "y"};
  for (const char* name : {"A", "B", "x", "y"}) builder.InternLabel(name);
  const size_t n = 2 + rng() % 11;
  for (size_t i = 0; i < n; ++i) builder.AddVertex(vertex_labels[rng() % 2]);
  const size_t m = n + rng() % (4 * n + 1);
  for (size_t e = 0; e < m; ++e) {
    (void)builder.AddEdge(static_cast<VertexId>(rng() % n),
                          static_cast<VertexId>(rng() % n),
                          edge_labels[rng() % 2]);
  }
  return std::move(builder).Build().value();
}

// Random connected pattern: a random spanning tree with random edge
// directions, plus extra edges that close cycles, join nodes at the same
// distance or loop on one node. The focus is any node.
Pattern RandomPattern(std::mt19937& rng, const LabelDict& dict) {
  const Label vertex_labels[] = {dict.Find("A"), dict.Find("B")};
  const Label edge_labels[] = {dict.Find("x"), dict.Find("y")};
  Pattern q;
  const size_t k = 1 + rng() % 5;
  for (size_t i = 0; i < k; ++i) q.AddNode(vertex_labels[rng() % 2]);
  auto add = [&](PatternNodeId a, PatternNodeId b) {
    if (rng() % 2 == 0) std::swap(a, b);
    EXPECT_TRUE(q.AddEdge(a, b, edge_labels[rng() % 2]).ok());
  };
  for (PatternNodeId u = 1; u < k; ++u) {
    add(u, static_cast<PatternNodeId>(rng() % u));
  }
  const size_t extra = rng() % 4;
  for (size_t i = 0; i < extra; ++i) {
    add(static_cast<PatternNodeId>(rng() % k),
        static_cast<PatternNodeId>(rng() % k));
  }
  EXPECT_TRUE(q.set_focus(static_cast<PatternNodeId>(rng() % k)).ok());
  return q;
}

TEST(BallFilterTest, EveryEmbeddingImageLiesInItsFilteredLevel) {
  MultiBallScratch scratch;
  size_t images_checked = 0;
  size_t deep_images = 0;  // of nodes two or more hops from the focus
  size_t narrowed = 0;  // balls smaller than the pattern-wide filter's
  for (uint64_t seed = 0; seed < 4000; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 2654435761u + 1));
    const Graph g = RandomGraph(rng);
    const Pattern q = RandomPattern(rng, g.dict());
    auto ev = PositiveEvaluator::Create(q, g, MatchOptions{});
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    const std::vector<int> hop = q.FocusDistances();
    const int radius = ev->radius();
    std::vector<VertexId> foci;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.vertex_label(v) == q.node(q.focus()).label) foci.push_back(v);
    }
    KHopBallsFiltered(g, foci, radius, ev->ball_filter(), SIZE_MAX, &scratch,
                      /*keep_levels=*/true);
    DynamicBitset pattern_labels(g.dict().size());
    for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
      pattern_labels.Set(q.edge(e).label);
    }
    MultiBallScratch wide;
    KHopBallsFiltered(g, foci, radius,
                      BallFilter::Uniform(radius, pattern_labels), SIZE_MAX,
                      &wide);
    for (size_t b = 0; b < foci.size(); ++b) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " focus " +
                   std::to_string(foci[b]) + "\n" + q.ToString(&g.dict()));
      ASSERT_NE((scratch.complete >> b) & 1ULL, 0u);
      const std::vector<VertexId> ball = DecodeWords(scratch.BallWords(b));
      const std::vector<VertexId> wide_ball = DecodeWords(wide.BallWords(b));
      ASSERT_TRUE(std::includes(wide_ball.begin(), wide_ball.end(),
                                ball.begin(), ball.end()));
      if (ball.size() < wide_ball.size()) ++narrowed;
      ForEachEmbedding(q, g, foci[b], [&](const std::vector<VertexId>& h) {
        for (PatternNodeId u = 0; u < q.num_nodes(); ++u) {
          ASSERT_TRUE(InWords(scratch.BallWords(b), h[u])) << "node " << u;
          if (hop[u] > 0) {
            ASSERT_TRUE(InWords(scratch.LevelWords(b, hop[u]), h[u]))
                << "node " << u << " at distance " << hop[u];
          }
          ++images_checked;
          if (hop[u] >= 2) ++deep_images;
        }
      });
    }
  }
  EXPECT_GT(images_checked, 5000u) << deep_images << " " << narrowed;
  EXPECT_GT(deep_images, 500u);
  EXPECT_GT(narrowed, 100u);
}

// focus f:A -x-> b:B -y-> c:C. The filter lets hop 0 expand A and B
// vertices along out-edges x and y, and hop 1 expand only B vertices
// along out-edges y. On the graph below, vertex 0's ball is {0, 1, 4, 6};
// each vertex 2, 3 and 5 is let in by a filter that ignores one of the
// three narrowings:
//   2: 1 -x-> 2, an x edge at hop 1 (ignoring levels);
//   3: 3 -y-> 1, a y in-edge (ignoring directions);
//   5: 4 -y-> 5 out of the C vertex 4 (ignoring node labels).
TEST(BallFilterTest, NarrowsByLevelDirectionAndNodeLabel) {
  GraphBuilder builder;
  for (const char* label : {"A", "B", "C", "C", "C", "C", "C"}) {
    builder.AddVertex(label);
  }
  ASSERT_TRUE(builder.AddEdge(0, 1, "x").ok());
  ASSERT_TRUE(builder.AddEdge(1, 6, "y").ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, "x").ok());
  ASSERT_TRUE(builder.AddEdge(3, 1, "y").ok());
  ASSERT_TRUE(builder.AddEdge(0, 4, "x").ok());
  ASSERT_TRUE(builder.AddEdge(4, 5, "y").ok());
  const Graph g = std::move(builder).Build().value();
  const LabelDict& dict = g.dict();
  Pattern q;
  const PatternNodeId f = q.AddNode(dict.Find("A"), "f");
  const PatternNodeId b = q.AddNode(dict.Find("B"), "b");
  const PatternNodeId c = q.AddNode(dict.Find("C"), "c");
  ASSERT_TRUE(q.AddEdge(f, b, dict.Find("x")).ok());
  ASSERT_TRUE(q.AddEdge(b, c, dict.Find("y")).ok());
  ASSERT_TRUE(q.set_focus(f).ok());
  auto ev = PositiveEvaluator::Create(q, g, MatchOptions{});
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  ASSERT_EQ(ev->radius(), 2);
  EXPECT_TRUE(ev->VerifyFocus(0, nullptr, nullptr, nullptr));

  const VertexId focus = 0;
  auto ball_of = [&](const BallFilter& filter, int level) {
    MultiBallScratch scratch;
    KHopBallsFiltered(g, {&focus, 1}, 2, filter, SIZE_MAX, &scratch,
                      /*keep_levels=*/true);
    return DecodeWords(scratch.LevelWords(0, level));
  };
  const BallFilter& filter = ev->ball_filter();
  EXPECT_EQ(ball_of(filter, 1), (std::vector<VertexId>{0, 1, 4}));
  EXPECT_EQ(ball_of(filter, 2), (std::vector<VertexId>{0, 1, 4, 6}));

  auto united = [&](const DynamicBitset& a, const DynamicBitset& b) {
    DynamicBitset out(dict.size());
    for (Label l = 0; l < dict.size(); ++l) {
      if (a.Test(l) || b.Test(l)) out.Set(l);
    }
    return out;
  };
  BallFilter no_levels = filter;  // hop 1 as wide as hop 0
  no_levels.out[1] = united(filter.out[0], filter.out[1]);
  no_levels.node[1] = united(filter.node[0], filter.node[1]);
  EXPECT_EQ(ball_of(no_levels, 2), (std::vector<VertexId>{0, 1, 2, 4, 6}));
  BallFilter no_directions = filter;
  for (size_t i = 0; i < filter.out.size(); ++i) {
    no_directions.out[i] = no_directions.in[i] =
        united(filter.out[i], filter.in[i]);
  }
  EXPECT_EQ(ball_of(no_directions, 2),
            (std::vector<VertexId>{0, 1, 3, 4, 6}));
  BallFilter no_node_labels = filter;
  for (DynamicBitset& node : no_node_labels.node) node = DynamicBitset();
  EXPECT_EQ(ball_of(no_node_labels, 2),
            (std::vector<VertexId>{0, 1, 4, 5, 6}));
  DynamicBitset pattern_labels(dict.size());
  pattern_labels.Set(dict.Find("x"));
  pattern_labels.Set(dict.Find("y"));
  EXPECT_EQ(ball_of(BallFilter::Uniform(2, pattern_labels), 2),
            (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace qgp
