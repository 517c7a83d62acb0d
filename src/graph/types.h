#ifndef QGP_GRAPH_TYPES_H_
#define QGP_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>

namespace qgp {

/// Dense vertex identifier within one Graph (0-based).
using VertexId = uint32_t;

/// Interned label identifier (node or edge label), see LabelDict.
using Label = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// Sentinel for "no label".
inline constexpr Label kInvalidLabel = std::numeric_limits<Label>::max();

/// One directed labeled edge, as fed to GraphBuilder.
struct EdgeTriple {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  Label label = kInvalidLabel;

  friend bool operator==(const EdgeTriple&, const EdgeTriple&) = default;
};

/// Adjacency entry: the endpoint reached plus the edge label. Out-lists
/// store (dst, label); in-lists store (src, label). Lists are sorted by
/// (label, v) so per-label slices are contiguous runs.
struct Neighbor {
  VertexId v = kInvalidVertex;
  Label label = kInvalidLabel;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

}  // namespace qgp

#endif  // QGP_GRAPH_TYPES_H_
