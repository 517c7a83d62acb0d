#include "core/generic_matcher.h"

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "graph/graph_builder.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

// Candidate sets as the matcher reads them: one bitset per set, viewed
// through its words, and masked by `mask` when one is given (as DMatch
// masks Cπ(u) by a focus's ball). Owns everything the views point into,
// so it stays put while a matcher uses it.
class Views {
 public:
  Views(const std::vector<std::vector<VertexId>>& sets, size_t universe,
        const std::vector<VertexId>& mask = {}, bool masked = false)
      : sets_(sets), mask_(mask), mask_bits_(universe) {
    for (VertexId v : mask_) mask_bits_.Set(v);
    bits_.reserve(sets_.size());
    for (const std::vector<VertexId>& set : sets_) {
      DynamicBitset& bits = bits_.emplace_back(universe);
      for (VertexId v : set) bits.Set(v);
    }
    for (size_t u = 0; u < sets_.size(); ++u) {
      views_.push_back(
          masked ? MaskedView(bits_[u].words(), sets_[u], mask_bits_.words(),
                              mask_)
                 : BitsetView{bits_[u].words(), {}, sets_[u],
                              sets_[u].size()});
    }
  }
  Views(const Views&) = delete;
  Views& operator=(const Views&) = delete;

  operator std::span<const BitsetView>() const { return views_; }

 private:
  std::vector<std::vector<VertexId>> sets_;
  std::vector<VertexId> mask_;
  DynamicBitset mask_bits_;
  std::vector<DynamicBitset> bits_;
  std::vector<BitsetView> views_;
};

// Every embedding `m` enumerates, in order.
std::vector<std::vector<VertexId>> AllEmbeddings(
    GenericMatcher& m, const GenericMatcher::SearchOptions& opts = {}) {
  std::vector<std::vector<VertexId>> out;
  m.Enumerate(opts, [&](const std::vector<VertexId>& h) {
    out.push_back(h);
    return true;
  });
  return out;
}

// A triangle 0->1->2->0 with uniform labels, plus candidate sets. With
// `second_triangle`, a disjoint copy 3->4->5->3 joins it.
struct TriangleFixture {
  Graph g;
  Pattern p;
  std::vector<std::vector<VertexId>> candidates;

  explicit TriangleFixture(bool second_triangle = false) {
    GraphBuilder b;
    const int n = second_triangle ? 6 : 3;
    for (int i = 0; i < n; ++i) b.AddVertex("n");
    for (int t = 0; t < n; t += 3) {
      (void)b.AddEdge(t, t + 1, "e");
      (void)b.AddEdge(t + 1, t + 2, "e");
      (void)b.AddEdge(t + 2, t, "e");
    }
    g = std::move(b).Build().value();
    LabelDict& dict = g.mutable_dict();
    PatternNodeId a = p.AddNode(dict.Intern("n"), "a");
    PatternNodeId c = p.AddNode(dict.Intern("n"), "b");
    PatternNodeId d = p.AddNode(dict.Intern("n"), "c");
    (void)p.AddEdge(a, c, dict.Intern("e"));
    (void)p.AddEdge(c, d, dict.Intern("e"));
    (void)p.AddEdge(d, a, dict.Intern("e"));
    (void)p.set_focus(a);
    std::vector<VertexId> all;
    for (int i = 0; i < n; ++i) all.push_back(static_cast<VertexId>(i));
    candidates.assign(3, all);
  }

  Views views() const { return Views(candidates, g.num_vertices()); }
};

TEST(GenericMatcherTest, EnumeratesAllEmbeddings) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  size_t count = 0;
  GenericMatcher::SearchOptions opts;
  bool complete = m.Enumerate(opts, [&](const std::vector<VertexId>& h) {
    EXPECT_EQ(h.size(), 3u);
    ++count;
    return true;
  });
  EXPECT_TRUE(complete);
  // Triangle rotations: 3 embeddings of the directed 3-cycle.
  EXPECT_EQ(count, 3u);

  // Masked input: every set holds both triangles and the mask keeps the
  // first plus vertex 4. The search must enumerate exactly what the
  // pre-masked sets give, in the same order.
  TriangleFixture two(/*second_triangle=*/true);
  const std::vector<VertexId> mask{0, 1, 2, 4};
  const Views masked(two.candidates, two.g.num_vertices(), mask, true);
  const Views premasked(std::vector<std::vector<VertexId>>(3, mask),
                        two.g.num_vertices());
  GenericMatcher masked_m(two.p, two.g, masked);
  GenericMatcher premasked_m(two.p, two.g, premasked);
  const auto want = AllEmbeddings(premasked_m);
  EXPECT_EQ(want.size(), 3u);
  EXPECT_EQ(AllEmbeddings(masked_m), want);
  // Unmasked, the same sets also find the second triangle.
  const Views whole = two.views();
  GenericMatcher whole_m(two.p, two.g, whole);
  EXPECT_EQ(AllEmbeddings(whole_m).size(), 6u);
}

TEST(GenericMatcherTest, PinRestrictsEmbeddings) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  std::pair<PatternNodeId, VertexId> pin{0, 1};
  GenericMatcher::SearchOptions opts;
  opts.pins = {&pin, 1};
  size_t count = 0;
  m.Enumerate(opts, [&](const std::vector<VertexId>& h) {
    EXPECT_EQ(h[0], 1u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(GenericMatcherTest, InconsistentPinsYieldNothing) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  // 0 -> 1 in the pattern, but graph edge (1, 0) does not exist.
  std::pair<PatternNodeId, VertexId> pins[2] = {{0, 1}, {1, 0}};
  GenericMatcher::SearchOptions opts;
  opts.pins = pins;
  size_t count = 0;
  m.Enumerate(opts, [&](const std::vector<VertexId>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0u);
}

TEST(GenericMatcherTest, PinOutsideCandidatesYieldsNothing) {
  TriangleFixture f;
  std::pair<PatternNodeId, VertexId> pin{0, 2};
  GenericMatcher::SearchOptions opts;
  opts.pins = {&pin, 1};
  {
    const Views views = f.views();
    GenericMatcher m(f.p, f.g, views);
    EXPECT_TRUE(m.FindAny(opts));
  }
  // A pin outside the mask: vertex 2 is in node 0's set but masked out.
  {
    const Views masked(f.candidates, f.g.num_vertices(), {0, 1}, true);
    GenericMatcher m(f.p, f.g, masked);
    EXPECT_FALSE(m.FindAny(opts));
  }
  f.candidates[0] = {0};  // restrict node 0's candidates
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  EXPECT_FALSE(m.FindAny(opts));
}

TEST(GenericMatcherTest, CallbackCanStopEarly) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  size_t count = 0;
  GenericMatcher::SearchOptions opts;
  m.Enumerate(opts, [&](const std::vector<VertexId>&) {
    ++count;
    return false;  // stop after the first embedding
  });
  EXPECT_EQ(count, 1u);
}

TEST(GenericMatcherTest, MaxIsomorphismsCap) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  GenericMatcher::SearchOptions opts;
  opts.max_isomorphisms = 2;
  size_t count = 0;
  bool complete = m.Enumerate(opts, [&](const std::vector<VertexId>&) {
    ++count;
    return true;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(count, 2u);
}

TEST(GenericMatcherTest, AcceptPredicateFilters) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  GenericMatcher::Accept accept = [](PatternNodeId, VertexId v) {
    return v != 2;  // forbid vertex 2 anywhere
  };
  GenericMatcher::SearchOptions opts;
  opts.accept = &accept;
  EXPECT_FALSE(m.FindAny(opts));  // the cycle needs all three vertices
}

TEST(GenericMatcherTest, InjectivityEnforced) {
  // Pattern with two 'n' nodes both children of a root; graph has a
  // single shared child: no embedding (h must be injective).
  GraphBuilder b;
  VertexId root = b.AddVertex("r");
  VertexId child = b.AddVertex("n");
  (void)b.AddEdge(root, child, "e");
  Graph g = std::move(b).Build().value();
  LabelDict& dict = g.mutable_dict();
  Pattern p;
  PatternNodeId pr = p.AddNode(dict.Intern("r"), "r");
  PatternNodeId c1 = p.AddNode(dict.Intern("n"), "c1");
  PatternNodeId c2 = p.AddNode(dict.Intern("n"), "c2");
  (void)p.AddEdge(pr, c1, dict.Intern("e"));
  (void)p.AddEdge(pr, c2, dict.Intern("e"));
  (void)p.set_focus(pr);
  const Views cand({{root}, {child}, {child}}, g.num_vertices());
  GenericMatcher m(p, g, cand);
  GenericMatcher::SearchOptions opts;
  EXPECT_FALSE(m.FindAny(opts));
}

TEST(GenericMatcherTest, SingleNodePattern) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  Pattern p;
  p.AddNode(dict.Intern("redmi_2a"), "r");
  const Views cand({{8}}, g.num_vertices());
  GenericMatcher m(p, g, cand);
  GenericMatcher::SearchOptions opts;
  std::vector<VertexId> found;
  EXPECT_TRUE(m.FindAny(opts, &found));
  EXPECT_EQ(found[0], 8u);

  // The lone node's step has no anchor, so it decodes the view: in
  // ascending order, masked members only.
  const Views masked({{2, 5, 8, 11}}, g.num_vertices(), {0, 5, 8, 9, 11},
                     true);
  GenericMatcher masked_m(p, g, masked);
  EXPECT_EQ(AllEmbeddings(masked_m),
            (std::vector<std::vector<VertexId>>{{5}, {8}, {11}}));
}

TEST(GenericMatcherTest, ScoreOrdersChildren) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  GenericMatcher::Score score = [](PatternNodeId, VertexId v) {
    return static_cast<double>(v);  // prefer the highest vertex id
  };
  GenericMatcher::SearchOptions opts;
  opts.score = &score;
  std::vector<VertexId> first;
  ASSERT_TRUE(m.FindAny(opts, &first));
  // Root step iterates the full candidate list ordered by score: 2 first.
  EXPECT_EQ(first[0], 2u);
}

// Vertex 0 with out-edges to 1..5, and the pattern r -> c1, r -> c2
// with r pinned to vertex 0: both children are anchored on its
// adjacency.
struct StarFixture {
  Graph g;
  Pattern p;
  PatternNodeId pr = 0;
  PatternNodeId c1 = 0;
  PatternNodeId c2 = 0;
  std::pair<PatternNodeId, VertexId> pin;

  StarFixture() {
    GraphBuilder b;
    VertexId r = b.AddVertex("n");
    for (int i = 0; i < 5; ++i) (void)b.AddEdge(r, b.AddVertex("n"), "e");
    g = std::move(b).Build().value();
    LabelDict& dict = g.mutable_dict();
    pr = p.AddNode(dict.Intern("n"), "r");
    c1 = p.AddNode(dict.Intern("n"), "c1");
    c2 = p.AddNode(dict.Intern("n"), "c2");
    (void)p.AddEdge(pr, c1, dict.Intern("e"));
    (void)p.AddEdge(pr, c2, dict.Intern("e"));
    (void)p.set_focus(pr);
    pin = {pr, r};
  }
};

TEST(GenericMatcherTest, EqualScoresAreTriedInAscendingVertexOrder) {
  StarFixture f;
  const Views views({{0}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}},
                    f.g.num_vertices());
  GenericMatcher m(f.p, f.g, views);
  GenericMatcher::Score score = [](PatternNodeId, VertexId v) {
    return static_cast<double>(v % 2);  // odd vertices first
  };
  std::vector<VertexId> tried;
  GenericMatcher::Accept accept = [&](PatternNodeId u, VertexId v) {
    if (u == f.pr) return true;
    tried.push_back(v);
    return false;  // reject every child: only the first step runs
  };
  GenericMatcher::SearchOptions opts;
  opts.pins = {&f.pin, 1};
  opts.accept = &accept;
  opts.score = &score;
  EXPECT_FALSE(m.FindAny(opts));
  EXPECT_EQ(tried, (std::vector<VertexId>{1, 3, 5, 2, 4}));
}

TEST(GenericMatcherTest, UnscoredNodeKeepsFrontierOrder) {
  // c1 (the smaller view, so placed first) is scored, highest vertex
  // first; c2 is left out of scored_nodes, so its frontier stays
  // ascending and the score is never asked about it.
  StarFixture f;
  const Views views({{0}, {1, 2}, {3, 4, 5}}, f.g.num_vertices());
  GenericMatcher m(f.p, f.g, views);
  std::vector<PatternNodeId> scored_at;
  GenericMatcher::Score score = [&](PatternNodeId u, VertexId v) {
    scored_at.push_back(u);
    return static_cast<double>(v);
  };
  const std::vector<char> scored_nodes{0, 1, 0};
  GenericMatcher::SearchOptions opts;
  opts.pins = {&f.pin, 1};
  opts.score = &score;
  opts.scored_nodes = scored_nodes;
  EXPECT_EQ(AllEmbeddings(m, opts),
            (std::vector<std::vector<VertexId>>{{0, 2, 3},
                                                {0, 2, 4},
                                                {0, 2, 5},
                                                {0, 1, 3},
                                                {0, 1, 4},
                                                {0, 1, 5}}));
  ASSERT_FALSE(scored_at.empty());
  for (PatternNodeId u : scored_at) EXPECT_EQ(u, f.c1);
}

TEST(GenericMatcherTest, SelectNextBreaksTiesByViewSize) {
  // Both children are anchored on the pinned r, so SelectNext takes the
  // one with the smaller view first. c1's set is the smaller, but the
  // mask leaves c2's view the smaller.
  StarFixture f;
  const std::vector<std::vector<VertexId>> sets{{0}, {1, 2}, {3, 4, 5}};
  std::vector<PatternNodeId> order;
  GenericMatcher::Accept accept = [&](PatternNodeId u, VertexId) {
    if (u == f.pr) return true;
    order.push_back(u);
    return false;  // reject every child: only the step order matters
  };
  GenericMatcher::SearchOptions opts;
  opts.pins = {&f.pin, 1};
  opts.accept = &accept;
  {
    const Views plain(sets, f.g.num_vertices());
    GenericMatcher m(f.p, f.g, plain);
    EXPECT_FALSE(m.FindAny(opts));
    ASSERT_FALSE(order.empty());
    EXPECT_EQ(order.front(), f.c1);  // |{1, 2}| < |{3, 4, 5}|
  }
  order.clear();
  const Views masked(sets, f.g.num_vertices(), {0, 1, 2, 3}, true);
  GenericMatcher m(f.p, f.g, masked);
  EXPECT_FALSE(m.FindAny(opts));
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), f.c2);  // |{3}| < |{1, 2}|
}

TEST(GenericMatcherTest, StatsCountExtensions) {
  TriangleFixture f;
  const Views views = f.views();
  GenericMatcher m(f.p, f.g, views);
  MatchStats stats;
  GenericMatcher::SearchOptions opts;
  opts.stats = &stats;
  m.Enumerate(opts, [](const std::vector<VertexId>&) { return true; });
  EXPECT_EQ(stats.isomorphisms_enumerated, 3u);
  EXPECT_GT(stats.search_extensions, 0u);
}

}  // namespace
}  // namespace qgp
