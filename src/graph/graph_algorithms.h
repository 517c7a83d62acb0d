#ifndef QGP_GRAPH_GRAPH_ALGORITHMS_H_
#define QGP_GRAPH_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "common/vertex_set.h"
#include "graph/graph.h"

namespace qgp {

/// Vertices within `depth` hops of `src`, treating edges as undirected
/// (the paper's Nd(v); §5.2 — verification of a focus candidate may walk
/// pattern edges in either direction, hence undirected). The result is
/// sorted ascending and includes `src`.
std::vector<VertexId> KHopBall(const Graph& g, VertexId src, int depth);

/// Union of KHopBall over `sources` from one BFS seeded with all of them
/// (a vertex is within `depth` hops of some source iff its distance from
/// the source set is at most `depth`), so a region costs one traversal
/// however many balls overlap in it. Sorted ascending; out-of-range
/// sources contribute nothing.
std::vector<VertexId> KHopBall(const Graph& g,
                               std::span<const VertexId> sources, int depth);

/// Ball variant used by DMatch's per-focus locality: only edges whose
/// label is set in `edge_labels` are traversed (an embedding can only
/// walk pattern edge labels), and expansion aborts once more than
/// `max_size` vertices are visited (hub explosion guard). On abort,
/// *complete is set to false and the caller must fall back to global
/// candidate sets — the ball is an optimization, not a semantic need.
std::vector<VertexId> KHopBallFiltered(const Graph& g, VertexId src,
                                       int depth,
                                       const DynamicBitset& edge_labels,
                                       size_t max_size, bool* complete);

/// Reusable buffers for repeated ball extractions (one arena per thread in
/// DMatch's per-focus loop). The visited set resets in O(|previous ball|),
/// so per-focus cost no longer carries an O(|V|) allocate-and-zero term.
struct BallScratch {
  SparseBitset visited;
  std::vector<VertexId> frontier;
  std::vector<VertexId> next;
  std::vector<VertexId> ball;
};

/// Scratch-arena variant of KHopBallFiltered. Fills `scratch->ball`
/// (sorted ascending, decoded from the visited set — no sort) and returns
/// a span over it. After the call — and until `scratch` is next used —
/// `scratch->visited` holds exactly the ball members, usable as an O(1)
/// membership filter or as a word array for dense intersection.
std::span<const VertexId> KHopBallFilteredScratch(
    const Graph& g, VertexId src, int depth, const DynamicBitset& edge_labels,
    size_t max_size, BallScratch* scratch, bool* complete);

/// Sources one multi-source ball BFS serves: one bit of the per-vertex
/// reach mask each.
inline constexpr size_t kMaxBallSources = 64;

/// Reusable buffers for KHopBallsFiltered: three reach masks per vertex
/// (reached / current frontier / next frontier) plus every source's ball
/// as a membership bitset, about 32 bytes per vertex in all. Allocated
/// once per thread; every call resets only what the previous call
/// touched.
struct MultiBallScratch {
  std::vector<uint64_t> seen;      // bit i: reached by source i
  std::vector<uint64_t> frontier;  // bit i: on source i's current frontier
  std::vector<uint64_t> next;      // bit i: on source i's next frontier
  std::vector<VertexId> reached;   // vertices with a nonzero `seen`
  std::vector<VertexId> level;     // vertices with a nonzero `frontier`
  std::vector<VertexId> next_level;
  /// Ball membership words, source-major: word w of source i's ball is
  /// balls[i * words + w]. Only the words listed in `touched_words` can
  /// be nonzero.
  std::vector<uint64_t> balls;
  size_t words = 0;    // words per ball: ceil(|V| / 64)
  size_t sources = 0;  // sources of the last call
  SparseBitset touched;                 // over word ids
  std::vector<uint32_t> touched_words;  // ascending
  std::vector<size_t> ball_size;
  /// Bit i set iff source i's ball stayed within `max_size`.
  uint64_t complete = 0;

  /// Source i's ball as bitset words (exactly the ball when source i is
  /// complete, a partial set otherwise); valid until the next call.
  std::span<const uint64_t> BallWords(size_t i) const {
    return {balls.data() + i * words, words};
  }

  /// Appends source i's ball to `out` in ascending order (no sort: the
  /// touched words are visited in order and decoded).
  void AppendBallSorted(size_t i, std::vector<VertexId>& out) const {
    const uint64_t* ball = balls.data() + i * words;
    for (uint32_t w : touched_words) {
      uint64_t bits = ball[w];
      while (bits != 0) {
        out.push_back(static_cast<VertexId>((static_cast<size_t>(w) << 6) +
                                            __builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }
};

/// KHopBallFilteredScratch for up to kMaxBallSources sources at once
/// (multi-source BFS, Then et al., PVLDB 2014): one level-synchronous
/// traversal carries a 64-bit mask of the sources that reached each
/// vertex, so a vertex shared by many balls has its adjacency scanned
/// once per level instead of once per source. Afterwards bit i of
/// `scratch->complete` equals what KHopBallFilteredScratch reports in
/// `*complete` for sources[i], and when it is set, BallWords(i) and
/// AppendBallSorted(i) give exactly that call's ball (an incomplete
/// source stops propagating once its ball passes `max_size`). Sources
/// may repeat; out-of-range sources get an empty, complete ball.
void KHopBallsFiltered(const Graph& g, std::span<const VertexId> sources,
                       int depth, const DynamicBitset& edge_labels,
                       size_t max_size, MultiBallScratch* scratch);

/// |KHopBall| plus the number of edges among ball members — the paper's
/// |Nd(v)| counts the induced subgraph size (nodes + edges).
struct BallSize {
  size_t num_vertices = 0;
  size_t num_edges = 0;
  size_t total() const { return num_vertices + num_edges; }
};
BallSize KHopBallSize(const Graph& g, VertexId src, int depth);

/// BFS hop distance from `src` to every vertex (UINT32_MAX when
/// unreachable), optionally treating edges as undirected.
std::vector<uint32_t> BfsDistances(const Graph& g, VertexId src,
                                   bool undirected);

/// Undirected connected components; returns component id per vertex and
/// the component count.
struct Components {
  std::vector<uint32_t> component_of;
  size_t count = 0;
};
Components ConnectedComponents(const Graph& g);

/// Subgraph of `g` induced by `vertices` (global ids, need not be sorted;
/// duplicates ignored): keeps every edge of `g` whose endpoints are both
/// selected. `local_to_global[i]` maps the new id i back to `g`.
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> local_to_global;
  std::unordered_map<VertexId, VertexId> global_to_local;
};
Result<InducedSubgraph> ExtractInducedSubgraph(
    const Graph& g, std::span<const VertexId> vertices);

}  // namespace qgp

#endif  // QGP_GRAPH_GRAPH_ALGORITHMS_H_
