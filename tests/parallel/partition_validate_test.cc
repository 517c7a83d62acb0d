// Partition::Validate: the §5.2 checks every sharded answer rests on.
// Pinned rejection cases for each invariant it enforces (unique covering
// ownership; every owned vertex's d-hop ball present with all of its
// induced edges), one pinned acceptance case for an edge no ball needs,
// and a randomized differential against a per-vertex KHopBall reference
// over DPar partitions with random local deletions.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gen/social_gen.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_builder.h"
#include "parallel/dpar.h"
#include "parallel/partition.h"

namespace qgp {
namespace {

struct Edge {
  VertexId src;
  VertexId dst;
};

// A directed graph over `n` vertices with one edge label "e".
Graph MakeGraph(size_t n, const std::vector<Edge>& edges) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex("v");
  for (const Edge& e : edges) EXPECT_TRUE(b.AddEdge(e.src, e.dst, "e").ok());
  return std::move(b).Build().value();
}

// `local` without its local edge (src, dst, label); vertex ids unchanged.
Graph DropLocalEdge(const Graph& local, VertexId src, VertexId dst,
                    Label label) {
  GraphBuilder b(local.dict());
  for (VertexId v = 0; v < local.num_vertices(); ++v) {
    b.AddVertexWithLabel(local.vertex_label(v));
  }
  for (VertexId v = 0; v < local.num_vertices(); ++v) {
    for (const Neighbor& n : local.OutNeighbors(v)) {
      if (v == src && n.v == dst && n.label == label) continue;
      EXPECT_TRUE(b.AddEdgeWithLabel(v, n.v, n.label).ok());
    }
  }
  return std::move(b).Build().value();
}

// A fragment owning `owned` whose local graph is induced on `region`.
Fragment MakeFragment(const Graph& g, std::vector<VertexId> owned,
                      const std::vector<VertexId>& region) {
  Fragment f;
  f.sub = std::move(ExtractInducedSubgraph(g, region)).value();
  std::sort(owned.begin(), owned.end());
  f.owned_global = owned;
  for (VertexId v : owned) {
    auto it = f.sub.global_to_local.find(v);
    if (it != f.sub.global_to_local.end()) f.owned_local.push_back(it->second);
  }
  return f;
}

// Union of the d-hop balls of `owned`: the least region Validate accepts.
std::vector<VertexId> BallRegion(const Graph& g,
                                 const std::vector<VertexId>& owned, int d) {
  std::vector<VertexId> region;
  for (VertexId v : owned) {
    std::vector<VertexId> ball = KHopBall(g, v, d);
    region.insert(region.end(), ball.begin(), ball.end());
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  return region;
}

Partition MakePartition(const Graph& g,
                        const std::vector<std::vector<VertexId>>& owned,
                        int d) {
  Partition p;
  p.d = d;
  for (const auto& o : owned) {
    p.fragments.push_back(MakeFragment(g, o, BallRegion(g, o, d)));
  }
  return p;
}

void ExpectRejected(const Partition& p, const Graph& g,
                    const std::string& message) {
  Status s = p.Validate(g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find(message), std::string::npos) << s.ToString();
}

// Path 0 -> 1 -> 2 -> 3 -> 4 -> 5.
Graph Path6() {
  return MakeGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
}

TEST(PartitionValidateTest, AcceptsBallCoveringPartition) {
  Graph g = Path6();
  for (int d : {0, 1, 2, 3}) {
    EXPECT_TRUE(MakePartition(g, {{0, 1, 2}, {3, 4, 5}}, d).Validate(g).ok())
        << "d = " << d;
  }
}

TEST(PartitionValidateTest, RejectsVertexOwnedTwice) {
  Graph g = Path6();
  ExpectRejected(MakePartition(g, {{0, 1, 2, 3}, {3, 4, 5}}, 1), g,
                 "owned by two fragments");
}

TEST(PartitionValidateTest, RejectsUnownedVertex) {
  Graph g = Path6();
  ExpectRejected(MakePartition(g, {{0, 1, 2}, {4, 5}}, 1), g,
                 "owned by no fragment");
}

TEST(PartitionValidateTest, RejectsOutOfRangeOwnedVertex) {
  Graph g = Path6();
  Partition p = MakePartition(g, {{0, 1, 2}, {3, 4, 5}}, 1);
  p.fragments[1].owned_global.push_back(6);
  ExpectRejected(p, g, "out of range");
}

TEST(PartitionValidateTest, RejectsMissingBallVertex) {
  Graph g = Path6();
  // d = 2: vertex 0 is two hops from owned 2 (the ball's rim).
  Partition p;
  p.d = 2;
  p.fragments.push_back(MakeFragment(g, {0, 1, 2}, {0, 1, 2, 3, 4}));
  p.fragments.push_back(MakeFragment(g, {3, 4, 5}, {1, 2, 3, 4, 5}));
  ASSERT_TRUE(p.Validate(g).ok()) << p.Validate(g).ToString();
  p.fragments[0] = MakeFragment(g, {1, 2}, {1, 2, 3, 4});
  p.fragments[1] = MakeFragment(g, {0, 3, 4, 5}, {0, 1, 2, 3, 4, 5});
  ExpectRejected(p, g, "misses vertex 0");
  // An owned vertex is a member of its own ball.
  p.fragments[0] = MakeFragment(g, {0, 1, 2}, {1, 2, 3, 4});
  p.fragments[1] = MakeFragment(g, {3, 4, 5}, {1, 2, 3, 4, 5});
  ExpectRejected(p, g, "misses vertex 0");
}

TEST(PartitionValidateTest, RejectsMissingBallEdge) {
  Graph g = Path6();
  Partition p = MakePartition(g, {{0, 1, 2}, {3, 4, 5}}, 1);
  Fragment& f = p.fragments[0];
  // 2 -> 3 lies in the 1-ball of owned 2.
  const Label e = g.dict().Find("e");
  f.sub.graph = DropLocalEdge(f.sub.graph, f.sub.global_to_local.at(2),
                              f.sub.global_to_local.at(3), e);
  ExpectRejected(p, g, "ball edge missing");
}

TEST(PartitionValidateTest, RejectsMissingEdgeBetweenTwoRimVertices) {
  // 0 -> 1 -> 2 and 0 -> 3 -> 4 with a chord 2 -> 4: both chord ends sit
  // exactly d = 2 hops from 0, so the chord is an induced edge of 0's
  // ball even though no BFS from 0 walks it.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 4}});
  ASSERT_EQ(KHopBall(g, 0, 2), (std::vector<VertexId>{0, 1, 2, 3, 4}));
  Partition p = MakePartition(g, {{0}, {1, 2, 3, 4}}, 2);
  ASSERT_TRUE(p.Validate(g).ok());
  Fragment& f = p.fragments[0];
  const Label e = g.dict().Find("e");
  f.sub.graph = DropLocalEdge(f.sub.graph, f.sub.global_to_local.at(2),
                              f.sub.global_to_local.at(4), e);
  ExpectRejected(p, g, "ball edge missing");
}

TEST(PartitionValidateTest, DoesNotRequireEdgeOutsideEveryBall) {
  // d = 1, fragment 0 owns {0, 3}: balls {0, 1} and {2, 3, 4}. The edge
  // 1 -> 2 joins two local vertices that share no owned vertex's ball,
  // so the fragment may lack it.
  Graph g = Path6();
  Partition p;
  p.d = 1;
  p.fragments.push_back(MakeFragment(g, {0, 3}, {0, 1, 2, 3, 4}));
  p.fragments.push_back(MakeFragment(g, {1, 2, 4, 5}, {0, 1, 2, 3, 4, 5}));
  Fragment& f = p.fragments[0];
  const Label e = g.dict().Find("e");
  f.sub.graph = DropLocalEdge(f.sub.graph, f.sub.global_to_local.at(1),
                              f.sub.global_to_local.at(2), e);
  EXPECT_TRUE(p.Validate(g).ok()) << p.Validate(g).ToString();
  // Whereas 2 -> 3 is in the ball of owned 3.
  f.sub.graph = DropLocalEdge(f.sub.graph, f.sub.global_to_local.at(2),
                              f.sub.global_to_local.at(3), e);
  ExpectRejected(p, g, "ball edge missing");
}

// Condition (2) checked one owned vertex at a time: KHopBall, then each
// ball member must be local and each induced ball edge present.
bool ReferenceBallsPreserved(const Partition& p, const Graph& g) {
  for (const Fragment& f : p.fragments) {
    for (VertexId v : f.owned_global) {
      std::vector<VertexId> ball = KHopBall(g, v, p.d);
      for (VertexId w : ball) {
        if (f.sub.global_to_local.count(w) == 0) return false;
      }
      for (VertexId w : ball) {
        for (const Neighbor& n : g.OutNeighbors(w)) {
          if (!std::binary_search(ball.begin(), ball.end(), n.v)) continue;
          if (!f.sub.graph.HasEdge(f.sub.global_to_local.at(w),
                                   f.sub.global_to_local.at(n.v), n.label)) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

// Deletes from a random fragment one random local vertex (re-inducing
// the fragment on the rest), one random local edge, or one random local
// edge between two replicas — the edges most likely to lie in no owned
// vertex's ball.
void DeleteRandomLocal(const Graph& g, Partition* p, std::mt19937* rng) {
  Fragment& f = p->fragments[(*rng)() % p->fragments.size()];
  const Graph& local = f.sub.graph;
  const uint32_t kind = (*rng)() % 3;
  if (kind == 0) {
    if (local.num_vertices() == 0) return;
    std::vector<VertexId> region = f.sub.local_to_global;
    region.erase(region.begin() + (*rng)() % region.size());
    f = MakeFragment(g, f.owned_global, region);
    return;
  }
  auto owned = [&](VertexId l) {
    return std::binary_search(f.owned_global.begin(), f.owned_global.end(),
                              f.sub.local_to_global[l]);
  };
  std::vector<std::pair<VertexId, Neighbor>> edges;
  for (VertexId v = 0; v < local.num_vertices(); ++v) {
    for (const Neighbor& n : local.OutNeighbors(v)) {
      if (kind == 1 || (!owned(v) && !owned(n.v))) edges.push_back({v, n});
    }
  }
  if (edges.empty()) return;
  const auto& [src, n] = edges[(*rng)() % edges.size()];
  f.sub.graph = DropLocalEdge(local, src, n.v, n.label);
}

TEST(PartitionValidateTest, MatchesPerVertexReferenceOnDParPartitions) {
  size_t accepted = 0, rejected = 0;
  for (uint64_t seed : {3u, 11u}) {
    SocialConfig sc;
    sc.num_users = 160;
    sc.num_products = 12;
    sc.num_albums = 8;
    sc.num_clubs = 4;
    sc.num_hobbies = 4;
    sc.num_cities = 4;
    sc.community_size = 40;
    sc.avg_follows = 3.0;
    sc.seed = seed;
    Graph g = std::move(GenerateSocialGraph(sc)).value();
    for (int d : {1, 2}) {
      for (size_t n : {2u, 3u, 4u}) {
        DParConfig c;
        c.num_fragments = n;
        c.d = d;
        auto base = DPar(g, c);
        ASSERT_TRUE(base.ok()) << base.status().ToString();
        ASSERT_TRUE(base->Validate(g).ok());
        std::mt19937 rng(static_cast<uint32_t>(seed * 100 + d * 10 + n));
        for (int trial = 0; trial < 24; ++trial) {
          Partition p = *base;
          const int deletions = 1 + trial % 2;
          for (int k = 0; k < deletions; ++k) DeleteRandomLocal(g, &p, &rng);
          const bool expected = ReferenceBallsPreserved(p, g);
          Status s = p.Validate(g);
          EXPECT_EQ(s.ok(), expected)
              << "seed " << seed << " d " << d << " n " << n << " trial "
              << trial << ": " << s.ToString();
          if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::kCorruption);
          }
          (expected ? accepted : rejected) += 1;
        }
      }
    }
  }
  // Both verdicts must be exercised, or the differential proves little.
  EXPECT_GE(accepted, 16u);
  EXPECT_GE(rejected, 16u);
}

}  // namespace
}  // namespace qgp
