// Pins the work ShardedEngine::ApplyDelta routes, not just its answers
// (shard_differential_test covers those): over a fixed graph, partition
// and delta stream, each batch's shards_touched and vertices_imported
// must equal the pinned values, and vertices_imported must equal what
// a per-vertex KHopBall model of the routing rule imports — every
// vertex in the d-ball of an owned vertex within d hops of a touched
// vertex that the shard has not yet replicated.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gen/synthetic_gen.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_delta.h"
#include "parallel/dpar.h"
#include "shard/sharded_engine.h"

namespace qgp {
namespace {

using shard::ShardedEngine;
using shard::ShardedOptions;

constexpr int kD = 2;

Graph MakeGraph() {
  SyntheticConfig gc;
  gc.num_vertices = 1000;
  gc.num_edges = 1200;
  gc.num_node_labels = 3;
  gc.num_edge_labels = 2;
  gc.model = SyntheticConfig::Model::kSmallWorld;
  gc.seed = 41;
  return std::move(GenerateSynthetic(gc)).value();
}

// A batch of `ops` random mutations over the alive vertices of `g`.
NamedGraphDelta RandomDelta(const Graph& g, std::mt19937* rng, size_t ops) {
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_label(v) != kInvalidLabel) alive.push_back(v);
  }
  auto rand_vertex = [&]() { return alive[(*rng)() % alive.size()]; };
  NamedGraphDelta d;
  for (size_t i = 0; i < ops; ++i) {
    switch ((*rng)() % 6) {
      case 0:
        d.add_vertices.push_back("nl" + std::to_string((*rng)() % 3));
        break;
      case 1:
        d.remove_vertices.push_back(rand_vertex());
        break;
      case 2: {
        VertexId v = rand_vertex();
        auto nbrs = g.OutNeighbors(v);
        if (nbrs.empty()) break;
        const Neighbor& nbr = nbrs[(*rng)() % nbrs.size()];
        d.remove_edges.push_back({v, nbr.v, g.dict().Name(nbr.label)});
        break;
      }
      default:
        d.add_edges.push_back({rand_vertex(), rand_vertex(),
                               "el" + std::to_string((*rng)() % 2)});
        break;
    }
  }
  return d;
}

std::vector<VertexId> BallUnion(const Graph& g,
                                const std::vector<VertexId>& sources) {
  std::set<VertexId> out;
  for (VertexId s : sources) {
    for (VertexId v : KHopBall(g, s, kD)) out.insert(v);
  }
  return {out.begin(), out.end()};
}

// The routing rule replayed one ball at a time over a shadow master.
class RoutingModel {
 public:
  RoutingModel(Graph g, const Partition& p) : graph_(std::move(g)) {
    for (const Fragment& f : p.fragments) {
      local_.emplace_back(f.sub.local_to_global.begin(),
                          f.sub.local_to_global.end());
      owned_.push_back(f.owned_global);
    }
  }

  // Applies `delta` and returns how many vertices the shards import.
  size_t Apply(const NamedGraphDelta& delta) {
    GraphDeltaSummary summary =
        graph_.ApplyDelta(ResolveDelta(delta, &graph_.mutable_dict()))
            .value();
    // New vertices go to the least-owning shard, ties to the lowest.
    for (const auto& [v, label] : summary.vertices_added) {
      (void)label;
      size_t target = 0;
      for (size_t i = 1; i < owned_.size(); ++i) {
        if (owned_[i].size() < owned_[target].size()) target = i;
      }
      owned_[target].push_back(v);
    }
    for (auto& owned : owned_) {
      for (const auto& [v, label] : summary.vertices_removed) {
        (void)label;
        owned.erase(std::remove(owned.begin(), owned.end(), v), owned.end());
      }
    }
    const std::vector<VertexId> region = BallUnion(
        graph_, TouchedVertices(summary, nullptr, nullptr, false));
    size_t imported = 0;
    for (size_t i = 0; i < owned_.size(); ++i) {
      std::vector<VertexId> affected;
      for (VertexId v : owned_[i]) {
        if (std::binary_search(region.begin(), region.end(), v)) {
          affected.push_back(v);
        }
      }
      for (VertexId v : BallUnion(graph_, affected)) {
        imported += local_[i].insert(v).second ? 1 : 0;
      }
    }
    return imported;
  }

  const Graph& graph() const { return graph_; }

 private:
  Graph graph_;
  std::vector<std::set<VertexId>> local_;
  std::vector<std::vector<VertexId>> owned_;
};

struct Pin {
  size_t shards_touched;
  size_t vertices_imported;
};

TEST(ShardRoutingPin, RoutedWorkMatchesPinsAndBallReference) {
  Graph g = MakeGraph();
  DParConfig config;
  config.num_fragments = 4;
  config.d = kD;
  Partition partition = DPar(g, config).value();
  RoutingModel model(g, partition);
  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.d = kD;
  sopts.engine.num_threads = 1;
  auto sharded = ShardedEngine::Create(g, std::move(partition), sopts);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  // Captured from the one-ball-per-vertex router this test was written
  // against.
  const Pin pins[] = {
      {3, 0}, {4, 3}, {4, 1}, {4, 2}, {4, 2}, {4, 1}, {3, 3}, {3, 1},
      {1, 2}, {3, 0}, {4, 0}, {4, 5}, {4, 6}, {4, 0}, {4, 3}, {4, 5},
  };
  std::mt19937 rng(2024);
  size_t total_imported = 0;
  for (size_t batch = 0; batch < std::size(pins); ++batch) {
    NamedGraphDelta delta = RandomDelta(model.graph(), &rng, 2);
    auto out = (*sharded)->ApplyDelta(delta);
    ASSERT_TRUE(out.ok()) << "batch " << batch << ": "
                          << out.status().ToString();
    const size_t expected_imports = model.Apply(delta);
    EXPECT_EQ(out->vertices_imported, expected_imports) << "batch " << batch;
    EXPECT_EQ(out->shards_touched, pins[batch].shards_touched)
        << "batch " << batch;
    EXPECT_EQ(out->vertices_imported, pins[batch].vertices_imported)
        << "batch " << batch;
    total_imported += out->vertices_imported;
  }
  // The stream must actually route imports, or the pins prove little.
  EXPECT_GT(total_imported, 0u);
  EXPECT_FALSE((*sharded)->degraded());
}

}  // namespace
}  // namespace qgp
