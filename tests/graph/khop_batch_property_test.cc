// Property suite for the multi-source ball builder: on random labelled
// graphs, every source's ball out of one KHopBallsFiltered call must equal
// a plain filtered BFS from that source alone — same members, same
// hub-guard verdict — with overlapping and repeated sources, depth 0,
// label filters narrower than the label space, and one scratch arena
// reused across graphs of different sizes. The per-level balls the
// verifier masks pattern nodes with must equal the BFS at every depth,
// on a scratch reused across calls whose depth rises and falls, and so
// must the balls of per-hop filters that narrow edge labels by direction
// and the vertices allowed to expand.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

// `vertex_labels` (1 to 3) vertex labels; with one, every vertex is "n"
// and no random draw is spent on labels.
Graph RandomGraph(std::mt19937& rng, size_t n, size_t m,
                  size_t vertex_labels = 1) {
  GraphBuilder builder;
  const char* names[] = {"n", "p", "q"};
  for (size_t i = 0; i < n; ++i) {
    builder.AddVertex(names[vertex_labels > 1 ? rng() % vertex_labels : 0]);
  }
  const char* labels[] = {"a", "b", "c", "d"};
  for (size_t e = 0; e < m; ++e) {
    const VertexId u = static_cast<VertexId>(rng() % n);
    const VertexId v = static_cast<VertexId>(rng() % n);
    (void)builder.AddEdge(u, v, labels[rng() % 4]);
  }
  // A hub now and then, so the ball guard trips inside a batch.
  if (n > 8 && rng() % 2 == 0) {
    const VertexId hub = static_cast<VertexId>(rng() % n);
    for (size_t i = 0; i < n / 2; ++i) {
      (void)builder.AddEdge(hub, static_cast<VertexId>(rng() % n), "a");
    }
  }
  return std::move(builder).Build().value();
}

// Random filter over the dictionary. Sometimes sized below the label
// space: labels past the end are outside the filter's range and, per
// KHopBallsFiltered's contract, traversed.
DynamicBitset RandomFilter(std::mt19937& rng, const Graph& g) {
  const size_t size = rng() % 3 == 0 ? rng() % (g.dict().size() + 1)
                                     : g.dict().size();
  DynamicBitset filter(size);
  for (size_t l = 0; l < size; ++l) {
    if (rng() % 3 != 0) filter.Set(l);
  }
  return filter;
}

// Random per-hop filter: every set drawn like RandomFilter, and now and
// then fewer hops than `depth` (the hops past the end pass everything).
BallFilter RandomBallFilter(std::mt19937& rng, const Graph& g, int depth) {
  const int hops = rng() % 4 == 0 ? static_cast<int>(rng() % (depth + 1))
                                  : depth;
  BallFilter filter;
  for (int i = 0; i < hops; ++i) {
    filter.out.push_back(RandomFilter(rng, g));
    filter.in.push_back(RandomFilter(rng, g));
    filter.node.push_back(RandomFilter(rng, g));
  }
  return filter;
}

// Whether label `l` passes hop `hop`'s set of `sets`, per BallFilter's
// contract.
bool Passes(const std::vector<DynamicBitset>& sets, int hop, Label l) {
  if (static_cast<size_t>(hop) >= sets.size()) return true;
  return l >= sets[hop].size() || sets[hop].Test(l);
}

// The reference: a filtered breadth-first search from `src` alone,
// sorted. *complete is false iff the hub guard trips: a vertex beyond the
// source joins a ball that already holds `max_size`.
std::vector<VertexId> ReferenceBall(const Graph& g, VertexId src, int depth,
                                    const BallFilter& filter,
                                    size_t max_size, bool* complete) {
  *complete = true;
  if (src >= g.num_vertices()) return {};
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> ball{src};
  std::vector<VertexId> frontier{src};
  seen[src] = 1;
  for (int hop = 0; hop < depth; ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      if (!Passes(filter.node, hop, g.vertex_label(v))) continue;
      for (bool out : {true, false}) {
        for (const Neighbor& nb : out ? g.OutNeighbors(v) : g.InNeighbors(v)) {
          if (!Passes(out ? filter.out : filter.in, hop, nb.label)) continue;
          if (seen[nb.v] != 0) continue;
          seen[nb.v] = 1;
          ball.push_back(nb.v);
          next.push_back(nb.v);
        }
      }
    }
    frontier = std::move(next);
  }
  *complete = ball.size() <= std::max<size_t>(max_size, 1);
  std::sort(ball.begin(), ball.end());
  return ball;
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

// Source i's ball, decoded both ways the verifier reads it: the sorted
// list, and the bitset words, which must hold exactly the same members.
std::vector<VertexId> Decode(const MultiBallScratch& s, size_t i) {
  std::vector<VertexId> out;
  s.AppendBallSorted(i, out);
  EXPECT_EQ(out, DecodeWords(s.BallWords(i))) << "source " << i;
  return out;
}

// Overlapping sources: a random pick plus the neighbours and repeats of
// earlier ones, and an out-of-range id now and then.
std::vector<VertexId> RandomSources(std::mt19937& rng, const Graph& g) {
  const size_t n = g.num_vertices();
  std::vector<VertexId> sources;
  const size_t k = 1 + rng() % kMaxBallSources;
  while (sources.size() < k) {
    const uint32_t pick = rng() % 10;
    if (pick == 0 && !sources.empty()) {
      sources.push_back(sources[rng() % sources.size()]);
    } else if (pick == 1 && !sources.empty()) {
      const VertexId base = sources[rng() % sources.size()];
      auto out = base < n ? g.OutNeighbors(base) : std::span<const Neighbor>();
      sources.push_back(out.empty() ? base : out[rng() % out.size()].v);
    } else if (pick == 2) {
      sources.push_back(static_cast<VertexId>(n + rng() % 3));
    } else {
      sources.push_back(static_cast<VertexId>(rng() % n));
    }
  }
  return sources;
}

TEST(KHopBatchPropertyTest, EverySourceMatchesTheSingleSourceBall) {
  MultiBallScratch scratch;  // reused across every case on purpose
  size_t complete_seen = 0;
  size_t guarded_seen = 0;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 7919 + 3));
    const size_t n = 1 + rng() % 220;
    const Graph g = RandomGraph(rng, n, rng() % (4 * n + 1));
    const DynamicBitset labels = RandomFilter(rng, g);
    const int depth = static_cast<int>(rng() % 5);
    const BallFilter filter = BallFilter::Uniform(depth, labels);
    const size_t max_size =
        rng() % 2 == 0 ? rng() % (n + 1) : g.num_vertices() + 1;
    const std::vector<VertexId> sources = RandomSources(rng, g);
    KHopBallsFiltered(g, sources, depth, filter, max_size, &scratch);
    for (size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " source " +
                   std::to_string(i) + " (" + std::to_string(sources[i]) +
                   ") depth " + std::to_string(depth) + " limit " +
                   std::to_string(max_size));
      bool complete = false;
      const std::vector<VertexId> expect = ReferenceBall(
          g, sources[i], depth, filter, max_size, &complete);
      const bool got_complete = ((scratch.complete >> i) & 1ULL) != 0;
      ASSERT_EQ(got_complete, complete);
      if (complete) {
        ASSERT_EQ(Decode(scratch, i), expect);
        ++complete_seen;
      } else {
        ++guarded_seen;
      }
    }
  }
  // Both outcomes must really have been exercised.
  EXPECT_GT(complete_seen, 500u);
  EXPECT_GT(guarded_seen, 50u);
}

// Every level of every complete source equals the reference BFS of that
// depth. One scratch serves every call: per graph the depth goes
// 3 -> 1 -> 2 -> 3, and the graphs grow and shrink, so a level word an
// earlier call left behind fails the comparison.
TEST(KHopBatchPropertyTest, EveryLevelMatchesTheReferenceBall) {
  MultiBallScratch scratch;
  size_t levels_checked = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 104729 + 5));
    // Mostly growing universes, with a small graph now and then.
    const size_t n = seed % 5 == 4 ? 1 + rng() % 40 : 8 + seed * 6;
    const Graph g = RandomGraph(rng, n, rng() % (3 * n + 1));
    const DynamicBitset labels = RandomFilter(rng, g);
    const size_t max_size =
        rng() % 3 == 0 ? rng() % (n + 1) : g.num_vertices() + 1;
    for (int depth : {3, 1, 2, 3}) {
      const BallFilter filter = BallFilter::Uniform(depth, labels);
      const std::vector<VertexId> sources = RandomSources(rng, g);
      KHopBallsFiltered(g, sources, depth, filter, max_size, &scratch,
                        /*keep_levels=*/true);
      for (size_t i = 0; i < sources.size(); ++i) {
        if (((scratch.complete >> i) & 1ULL) == 0) continue;
        for (int level = 1; level <= depth; ++level) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " depth " +
                       std::to_string(depth) + " source " +
                       std::to_string(i) + " level " + std::to_string(level));
          bool complete = false;
          const std::vector<VertexId> expect =
              ReferenceBall(g, sources[i], level, filter, SIZE_MAX, &complete);
          ASSERT_EQ(DecodeWords(scratch.LevelWords(i, level)), expect);
          ++levels_checked;
        }
      }
    }
  }
  EXPECT_GT(levels_checked, 2000u);
}

// Per-hop filters: random out, in and node sets at each hop, sometimes
// fewer hops than the depth. Every complete source's ball and each of
// its levels equal a per-level breadth-first search from that source
// alone, and the hub-guard verdicts agree.
TEST(KHopBatchPropertyTest, PerHopFiltersMatchTheReferenceBall) {
  MultiBallScratch scratch;
  size_t levels_checked = 0;
  size_t narrowed = 0;  // balls smaller than the unfiltered ball
  for (uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 15485863 + 7));
    const size_t n = 1 + rng() % 160;
    const Graph g = RandomGraph(rng, n, rng() % (3 * n + 1), 3);
    const int depth = static_cast<int>(rng() % 5);
    const BallFilter filter = RandomBallFilter(rng, g, depth);
    const size_t max_size =
        rng() % 3 == 0 ? rng() % (n + 1) : g.num_vertices() + 1;
    const std::vector<VertexId> sources = RandomSources(rng, g);
    KHopBallsFiltered(g, sources, depth, filter, max_size, &scratch,
                      /*keep_levels=*/true);
    for (size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " source " +
                   std::to_string(i) + " depth " + std::to_string(depth));
      bool complete = false;
      const std::vector<VertexId> expect = ReferenceBall(
          g, sources[i], depth, filter, max_size, &complete);
      ASSERT_EQ(((scratch.complete >> i) & 1ULL) != 0, complete);
      if (!complete) continue;
      ASSERT_EQ(Decode(scratch, i), expect);
      bool unused = false;
      if (expect.size() <
          ReferenceBall(g, sources[i], depth, BallFilter(), SIZE_MAX, &unused)
              .size()) {
        ++narrowed;
      }
      for (int level = 1; level <= depth; ++level) {
        SCOPED_TRACE("level " + std::to_string(level));
        ASSERT_EQ(DecodeWords(scratch.LevelWords(i, level)),
                  ReferenceBall(g, sources[i], level, filter, SIZE_MAX,
                                &unused));
        ++levels_checked;
      }
    }
  }
  EXPECT_GT(levels_checked, 1000u);
  EXPECT_GT(narrowed, 200u);
}

TEST(KHopBatchPropertyTest, DepthZeroIsTheSourceAlone) {
  std::mt19937 rng(11);
  const Graph g = RandomGraph(rng, 50, 200);
  DynamicBitset all(g.dict().size());
  for (size_t l = 0; l < all.size(); ++l) all.Set(l);
  const std::vector<VertexId> sources = {3, 3, 49, 0, 77};
  MultiBallScratch scratch;
  KHopBallsFiltered(g, sources, 0, BallFilter::Uniform(0, all), 0, &scratch);
  EXPECT_EQ(scratch.complete, (1ULL << sources.size()) - 1);
  EXPECT_EQ(Decode(scratch, 0), (std::vector<VertexId>{3}));
  EXPECT_EQ(Decode(scratch, 1), (std::vector<VertexId>{3}));
  EXPECT_EQ(Decode(scratch, 2), (std::vector<VertexId>{49}));
  EXPECT_EQ(Decode(scratch, 3), (std::vector<VertexId>{0}));
  EXPECT_TRUE(Decode(scratch, 4).empty());  // out of range
}

// A hub batched with ordinary vertices: only the hub's ball passes the
// limit; its neighbours' balls stay complete and exact.
TEST(KHopBatchPropertyTest, HubGuardFlagsOnlyTheHub) {
  GraphBuilder builder;
  constexpr size_t kSpokes = 40;
  for (size_t i = 0; i <= kSpokes + 2; ++i) builder.AddVertex("n");
  for (size_t i = 1; i <= kSpokes; ++i) {
    (void)builder.AddEdge(0, static_cast<VertexId>(i), "a");
  }
  (void)builder.AddEdge(kSpokes + 1, kSpokes + 2, "a");
  const Graph g = std::move(builder).Build().value();
  DynamicBitset all(g.dict().size());
  for (size_t l = 0; l < all.size(); ++l) all.Set(l);
  std::vector<VertexId> sources;
  for (VertexId v = 0; v <= kSpokes + 2; ++v) sources.push_back(v);
  MultiBallScratch scratch;
  const BallFilter filter = BallFilter::Uniform(1, all);
  KHopBallsFiltered(g, sources, 1, filter, 10, &scratch);
  EXPECT_EQ(scratch.complete & 1ULL, 0u) << "hub must be flagged";
  for (size_t i = 1; i < sources.size(); ++i) {
    ASSERT_NE((scratch.complete >> i) & 1ULL, 0u) << "source " << i;
    bool complete = false;
    EXPECT_EQ(Decode(scratch, i),
              ReferenceBall(g, sources[i], 1, filter, 10, &complete));
    EXPECT_TRUE(complete);
  }
}

}  // namespace
}  // namespace qgp
