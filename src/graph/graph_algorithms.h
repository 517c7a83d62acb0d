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

/// Sources one multi-source ball BFS serves: one bit of the per-vertex
/// reach mask each.
inline constexpr size_t kMaxBallSources = 64;

/// Reusable buffers for KHopBallsFiltered: three reach masks per vertex
/// (reached / current frontier / next frontier) plus every source's ball
/// as a membership bitset, about 32 bytes per vertex in all, and 8 bytes
/// per vertex more for each level kept below the full depth. Allocated
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
  /// Level snapshots, level-major then source-major: word w of source
  /// i's level-L ball is levels[((L - 1) * kMaxBallSources + i) * words
  /// + w], for 1 <= L <= levels_kept. Zero outside `touched_words`.
  std::vector<uint64_t> levels;
  int levels_kept = 0;
  size_t words = 0;    // words per ball: ceil(|V| / 64)
  size_t sources = 0;  // sources of the last call
  SparseBitset touched;                 // over word ids
  std::vector<uint32_t> reached_words;  // `touched`, in touch order
  std::vector<uint32_t> touched_words;  // `touched`, ascending
  /// Per-source ball sizes for the hub guard; counted only once the
  /// union of the balls has grown past the call's `max_size`.
  std::vector<size_t> ball_size;
  /// Bit i set iff source i's ball stayed within `max_size`.
  uint64_t complete = 0;

  /// Source i's ball as bitset words (exactly the ball when source i is
  /// complete, a partial set otherwise); valid until the next call.
  std::span<const uint64_t> BallWords(size_t i) const {
    return {balls.data() + i * words, words};
  }

  /// The vertices within `level` hops of source i (1 <= level <= the
  /// call's depth), as bitset words; exact when source i is complete and
  /// the call kept levels. Levels the BFS never reached because it ran
  /// out of frontier equal the full ball.
  std::span<const uint64_t> LevelWords(size_t i, int level) const {
    if (level > levels_kept) return BallWords(i);
    const size_t layer = static_cast<size_t>(level - 1) * kMaxBallSources;
    return {levels.data() + (layer + i) * words, words};
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

/// Per-hop filter of a ball BFS. At hop i (0 <= i < depth) a frontier
/// vertex whose label is not in node[i] is not expanded; one that is
/// scans its out-edges with out[i] and its in-edges with in[i]. A label
/// past a set's end passes, so an empty set passes every label, and a hop
/// past the vectors' end passes everything.
struct BallFilter {
  std::vector<DynamicBitset> out;   // edge labels allowed on out-edges
  std::vector<DynamicBitset> in;    // edge labels allowed on in-edges
  std::vector<DynamicBitset> node;  // vertex labels allowed to expand

  /// `edge_labels` on both directions at each of `depth` hops, every
  /// vertex expanded (the default passes every label).
  static BallFilter Uniform(int depth,
                            const DynamicBitset& edge_labels = {});
};

/// The balls of up to kMaxBallSources sources at once: the vertices
/// within `depth` undirected hops of each source, over the edges
/// `filter` lets each hop walk. One level-synchronous traversal carries
/// a 64-bit mask of the sources that reached each vertex, so a vertex
/// shared by many balls has its adjacency scanned once per level instead
/// of once per source (multi-source BFS, Then et al., PVLDB 2014).
///
/// Afterwards bit i of `scratch->complete` is clear iff source i's ball
/// grew past `max_size` vertices (hub explosion guard): that source
/// stopped propagating, its words hold a partial set, and the caller
/// must fall back to global candidate sets — the ball is an
/// optimization, not a semantic need. For a complete source, BallWords(i)
/// and AppendBallSorted(i) give exactly its ball, and, when
/// `keep_levels` is set, LevelWords(i, L) its L-hop ball for every
/// L <= depth. Sources may repeat; out-of-range sources get an empty,
/// complete ball.
void KHopBallsFiltered(const Graph& g, std::span<const VertexId> sources,
                       int depth, const BallFilter& filter, size_t max_size,
                       MultiBallScratch* scratch, bool keep_levels = false);

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
