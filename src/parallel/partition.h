#ifndef QGP_PARALLEL_PARTITION_H_
#define QGP_PARALLEL_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph_algorithms.h"

namespace qgp {

/// One worker's fragment Fi: a local subgraph of G (induced on the base
/// region plus replicated d-hop balls) and the set of global vertices
/// this fragment OWNS, i.e. answers for. Ownership is a partition of V:
/// every vertex is owned by exactly one fragment, and the owner's local
/// graph contains the whole Nd(v) of each owned vertex, which is what
/// makes local evaluation exact (Lemma 9(1)).
struct Fragment {
  InducedSubgraph sub;
  std::vector<VertexId> owned_global;  // sorted global ids
  std::vector<VertexId> owned_local;   // same vertices, local ids

  /// |Fi| as the paper measures it: local nodes + edges.
  size_t SizeCost() const {
    return sub.graph.num_vertices() + sub.graph.num_edges();
  }
};

/// A d-hop preserving partition P_d of a graph (§5.2).
struct Partition {
  int d = 0;
  std::vector<Fragment> fragments;
  size_t num_border_nodes = 0;  // diagnostic: balls replicated by DPar
  /// Base region per global vertex (kept so DParExtend can widen d
  /// without re-partitioning).
  std::vector<uint32_t> base_region;

  /// Balance skew: min fragment size / max fragment size (the paper
  /// reports >= 0.8 at n = 8). 1.0 when empty.
  double Skew() const;

  /// Total replicated size Σ|Fi| versus |G|.
  double ReplicationFactor(const Graph& g) const;

  /// Checks the two §5.2 invariants against `g`:
  ///  (1) covering & unique ownership: every vertex owned exactly once;
  ///  (2) d-hop preservation: for every owned v, Nd(v) (vertices AND
  ///      induced edges) is present in the owner's local graph.
  /// Cost: (2) runs one multi-source BFS (KHopBallsFiltered) per
  /// kMaxBallSources owned vertices of a fragment and checks each reached
  /// vertex's out-edges once against the batch's per-vertex source masks,
  /// with array lookups for local ids, instead of one BFS, sort and hash
  /// probe per ball member. Scratch is about 44 bytes per vertex of `g`.
  Status Validate(const Graph& g) const;
};

}  // namespace qgp

#endif  // QGP_PARALLEL_PARTITION_H_
