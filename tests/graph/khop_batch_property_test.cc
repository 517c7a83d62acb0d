// Property suite for the multi-source ball builder: on random labelled
// graphs, every source's ball out of one KHopBallsFiltered call must equal
// what KHopBallFiltered computes for that source alone — same members,
// same hub-guard verdict — with overlapping and repeated sources, depth 0,
// label filters narrower than the label space, and one scratch arena
// reused across graphs of different sizes.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

Graph RandomGraph(std::mt19937& rng, size_t n, size_t m) {
  GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) builder.AddVertex("n");
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
// KHopBallFiltered's contract, traversed.
DynamicBitset RandomFilter(std::mt19937& rng, const Graph& g) {
  const size_t size = rng() % 3 == 0 ? rng() % (g.dict().size() + 1)
                                     : g.dict().size();
  DynamicBitset filter(size);
  for (size_t l = 0; l < size; ++l) {
    if (rng() % 3 != 0) filter.Set(l);
  }
  return filter;
}

// Source i's ball, decoded both ways the verifier reads it: the sorted
// list, and the bitset words, which must hold exactly the same members.
std::vector<VertexId> Decode(const MultiBallScratch& s, size_t i) {
  std::vector<VertexId> out;
  s.AppendBallSorted(i, out);
  std::vector<VertexId> from_words;
  const std::span<const uint64_t> words = s.BallWords(i);
  for (size_t w = 0; w < words.size(); ++w) {
    for (int b = 0; b < 64; ++b) {
      if ((words[w] >> b) & 1ULL) {
        from_words.push_back(static_cast<VertexId>(w * 64 + b));
      }
    }
  }
  EXPECT_EQ(out, from_words) << "source " << i;
  return out;
}

TEST(KHopBatchPropertyTest, EverySourceMatchesTheSingleSourceBall) {
  MultiBallScratch scratch;  // reused across every case on purpose
  size_t complete_seen = 0;
  size_t guarded_seen = 0;
  for (uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed * 7919 + 3));
    const size_t n = 1 + rng() % 220;
    const Graph g = RandomGraph(rng, n, rng() % (4 * n + 1));
    const DynamicBitset filter = RandomFilter(rng, g);
    const int depth = static_cast<int>(rng() % 5);
    const size_t max_size =
        rng() % 2 == 0 ? rng() % (n + 1) : g.num_vertices() + 1;
    // Overlapping sources: a random pick plus the neighbours and repeats
    // of earlier ones, and an out-of-range id now and then.
    std::vector<VertexId> sources;
    const size_t k = 1 + rng() % kMaxBallSources;
    while (sources.size() < k) {
      const uint32_t pick = rng() % 10;
      if (pick == 0 && !sources.empty()) {
        sources.push_back(sources[rng() % sources.size()]);
      } else if (pick == 1 && !sources.empty()) {
        const VertexId base = sources[rng() % sources.size()];
        auto out = base < n ? g.OutNeighbors(base)
                            : std::span<const Neighbor>();
        sources.push_back(out.empty() ? base : out[rng() % out.size()].v);
      } else if (pick == 2) {
        sources.push_back(static_cast<VertexId>(n + rng() % 3));
      } else {
        sources.push_back(static_cast<VertexId>(rng() % n));
      }
    }
    KHopBallsFiltered(g, sources, depth, filter, max_size, &scratch);
    for (size_t i = 0; i < sources.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " source " +
                   std::to_string(i) + " (" + std::to_string(sources[i]) +
                   ") depth " + std::to_string(depth) + " limit " +
                   std::to_string(max_size));
      bool complete = false;
      const std::vector<VertexId> expect = KHopBallFiltered(
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

TEST(KHopBatchPropertyTest, DepthZeroIsTheSourceAlone) {
  std::mt19937 rng(11);
  const Graph g = RandomGraph(rng, 50, 200);
  DynamicBitset all(g.dict().size());
  for (size_t l = 0; l < all.size(); ++l) all.Set(l);
  const std::vector<VertexId> sources = {3, 3, 49, 0, 77};
  MultiBallScratch scratch;
  KHopBallsFiltered(g, sources, 0, all, 0, &scratch);
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
  KHopBallsFiltered(g, sources, 1, all, 10, &scratch);
  EXPECT_EQ(scratch.complete & 1ULL, 0u) << "hub must be flagged";
  for (size_t i = 1; i < sources.size(); ++i) {
    ASSERT_NE((scratch.complete >> i) & 1ULL, 0u) << "source " << i;
    bool complete = false;
    EXPECT_EQ(Decode(scratch, i),
              KHopBallFiltered(g, sources[i], 1, all, 10, &complete));
    EXPECT_TRUE(complete);
  }
}

}  // namespace
}  // namespace qgp
