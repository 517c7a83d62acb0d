#include "graph/graph_algorithms.h"

#include <algorithm>

#include "common/bitset.h"
#include "graph/graph_builder.h"

namespace qgp {

std::vector<VertexId> KHopBall(const Graph& g, VertexId src, int depth) {
  return KHopBall(g, std::span<const VertexId>(&src, 1), depth);
}

std::vector<VertexId> KHopBall(const Graph& g,
                               std::span<const VertexId> sources, int depth) {
  std::vector<VertexId> ball;
  std::vector<VertexId> frontier;
  DynamicBitset visited(g.num_vertices());
  for (VertexId src : sources) {
    if (src < g.num_vertices() && visited.TestAndSet(src)) {
      ball.push_back(src);
      frontier.push_back(src);
    }
  }
  for (int hop = 0; hop < depth && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (const Neighbor& n : g.OutNeighbors(v)) {
        if (visited.TestAndSet(n.v)) {
          ball.push_back(n.v);
          next.push_back(n.v);
        }
      }
      for (const Neighbor& n : g.InNeighbors(v)) {
        if (visited.TestAndSet(n.v)) {
          ball.push_back(n.v);
          next.push_back(n.v);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(ball.begin(), ball.end());
  return ball;
}

BallFilter BallFilter::Uniform(int depth, const DynamicBitset& edge_labels) {
  const size_t hops = static_cast<size_t>(std::max(depth, 0));
  BallFilter filter;
  filter.out.assign(hops, edge_labels);
  filter.in.assign(hops, edge_labels);
  filter.node.assign(hops, DynamicBitset());
  return filter;
}

namespace {

// One set of a BallFilter hop, read through locals in the scan loop (a
// store into the reach masks could otherwise alias the set's size).
struct LabelPass {
  const uint64_t* words = nullptr;
  size_t size = 0;

  LabelPass(const std::vector<DynamicBitset>& sets, int hop) {
    if (static_cast<size_t>(hop) < sets.size()) {
      words = sets[hop].words().data();
      size = sets[hop].size();
    }
  }
  bool operator()(Label l) const {
    return l >= size || ((words[l >> 6] >> (l & 63)) & 1ULL) != 0;
  }
};

}  // namespace

void KHopBallsFiltered(const Graph& g, std::span<const VertexId> sources,
                       int depth, const BallFilter& filter, size_t max_size,
                       MultiBallScratch* scratch, bool keep_levels) {
  MultiBallScratch& s = *scratch;
  const size_t n = g.num_vertices();
  const size_t k = std::min(sources.size(), kMaxBallSources);
  if (s.seen.size() < n) {
    s.seen.resize(n, 0);
    s.frontier.resize(n, 0);
    s.next.resize(n, 0);
  }
  const size_t words = (n + 63) / 64;
  if (words > s.words) {
    // Wider universe: restart the ball and level rows from all-zero.
    s.words = words;
    s.balls.assign(kMaxBallSources * words, 0);
    s.levels.clear();
    s.touched = SparseBitset();
  } else {
    for (uint32_t w : s.touched_words) {
      for (size_t i = 0; i < s.sources; ++i) s.balls[i * s.words + w] = 0;
      for (int l = 0; l < s.levels_kept; ++l) {
        uint64_t* layer = s.levels.data() + l * kMaxBallSources * s.words;
        for (size_t i = 0; i < s.sources; ++i) layer[i * s.words + w] = 0;
      }
    }
    s.touched.ResetTouched();
  }
  const size_t stride = s.words;
  const int layers = keep_levels ? std::max(depth - 1, 0) : 0;
  const size_t level_words =
      static_cast<size_t>(layers) * kMaxBallSources * stride;
  if (s.levels.size() < level_words) s.levels.resize(level_words, 0);
  s.levels_kept = 0;
  s.touched.EnsureUniverse(s.words);
  s.reached_words.clear();
  s.touched_words.clear();
  s.ball_size.assign(k, 0);
  s.sources = k;
  s.reached.clear();
  s.level.clear();
  s.next_level.clear();
  s.complete = k == kMaxBallSources ? ~0ULL : (1ULL << k) - 1;
  uint64_t* const balls = s.balls.data();
  auto reach = [&](VertexId v) {
    s.reached.push_back(v);
    if (s.touched.TestAndSet(v >> 6)) s.reached_words.push_back(v >> 6);
  };
  uint64_t alive = 0;
  for (size_t i = 0; i < k; ++i) {
    const VertexId src = sources[i];
    if (src >= n) continue;
    const uint64_t bit = 1ULL << i;
    balls[i * stride + (src >> 6)] |= 1ULL << (src & 63);
    s.ball_size[i] = 1;
    alive |= bit;
    if (s.seen[src] == 0) {
      reach(src);
      s.level.push_back(src);
    }
    s.seen[src] |= bit;
    s.frontier[src] |= bit;
  }
  // Only the hub guard reads the ball sizes, and no ball outgrows the
  // union of all balls (`reached`). So nothing is counted per source
  // while the union stays within max_size; when it first passes, each
  // ball's size is popcounted from its row, and counted per fresh bit
  // from then on, so the guard still fires mid-level at the same vertex.
  bool counting = s.reached.size() > max_size;
  auto start_counting = [&] {
    for (size_t i = 0; i < k; ++i) {
      size_t size = 0;
      for (uint32_t w : s.reached_words) {
        size +=
            static_cast<size_t>(__builtin_popcountll(balls[i * stride + w]));
      }
      s.ball_size[i] = size;
    }
    counting = true;
  };
  for (int hop = 0; hop < depth && !s.level.empty() && alive != 0; ++hop) {
    const LabelPass out_pass(filter.out, hop);
    const LabelPass in_pass(filter.in, hop);
    const LabelPass node_pass(filter.node, hop);
    for (VertexId v : s.level) {
      const uint64_t m = s.frontier[v];
      s.frontier[v] = 0;
      if ((m & alive) == 0 || !node_pass(g.vertex_label(v))) continue;
      auto expand = [&](std::span<const Neighbor> nbrs, const LabelPass& pass) {
        for (const Neighbor& nb : nbrs) {
          if (!pass(nb.label)) continue;
          const VertexId w = nb.v;
          uint64_t fresh = m & alive & ~s.seen[w];
          if (fresh == 0) continue;
          if (s.seen[w] == 0) {
            reach(w);
            if (!counting && s.reached.size() > max_size) start_counting();
          }
          s.seen[w] |= fresh;
          if (s.next[w] == 0) s.next_level.push_back(w);
          s.next[w] |= fresh;
          const size_t word = w >> 6;
          const uint64_t wbit = 1ULL << (w & 63);
          while (fresh != 0) {
            const int i = __builtin_ctzll(fresh);
            fresh &= fresh - 1;
            balls[i * stride + word] |= wbit;
            if (counting && ++s.ball_size[i] > max_size) {
              // Hub guard: the ball outgrew the limit, so the caller
              // falls back to global sets; stop spending BFS work on it.
              alive &= ~(1ULL << i);
              s.complete &= ~(1ULL << i);
            }
          }
        }
      };
      expand(g.OutNeighbors(v), out_pass);
      expand(g.InNeighbors(v), in_pass);
    }
    s.level.swap(s.next_level);
    s.next_level.clear();
    s.frontier.swap(s.next);
    if (hop < layers) {
      // Every ball now holds exactly the vertices within hop + 1 hops;
      // only words touched so far can be nonzero.
      uint64_t* layer = s.levels.data() + hop * kMaxBallSources * stride;
      for (size_t i = 0; i < k; ++i) {
        for (uint32_t w : s.reached_words) {
          layer[i * stride + w] = balls[i * stride + w];
        }
      }
      s.levels_kept = hop + 1;
    }
  }
  for (VertexId v : s.level) s.frontier[v] = 0;
  for (VertexId v : s.reached) s.seen[v] = 0;
  s.touched.AppendSetBitsSorted(s.touched_words);
}

Result<InducedSubgraph> ExtractInducedSubgraph(
    const Graph& g, std::span<const VertexId> vertices) {
  InducedSubgraph out;
  GraphBuilder builder(g.dict());
  out.global_to_local.reserve(vertices.size());
  for (VertexId v : vertices) {
    if (v >= g.num_vertices()) {
      return Status::InvalidArgument("induced subgraph vertex out of range");
    }
    if (out.global_to_local.count(v) != 0) continue;
    VertexId local = builder.AddVertexWithLabel(g.vertex_label(v));
    out.global_to_local.emplace(v, local);
    out.local_to_global.push_back(v);
  }
  for (VertexId v : out.local_to_global) {
    VertexId local_src = out.global_to_local[v];
    for (const Neighbor& n : g.OutNeighbors(v)) {
      auto it = out.global_to_local.find(n.v);
      if (it == out.global_to_local.end()) continue;
      QGP_RETURN_IF_ERROR(
          builder.AddEdgeWithLabel(local_src, it->second, n.label));
    }
  }
  QGP_ASSIGN_OR_RETURN(out.graph, std::move(builder).Build());
  return out;
}

}  // namespace qgp
