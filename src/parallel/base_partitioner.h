#ifndef QGP_PARALLEL_BASE_PARTITIONER_H_
#define QGP_PARALLEL_BASE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace qgp {

/// Balanced base partition of V into n regions (the seed DPar extends;
/// the paper uses METIS [23] here; docs/ARCHITECTURE.md, "Experimental
/// substitutions", documents the swap). BFS region growing: fragments
/// are grown one at a time from unassigned seeds up to a per-fragment
/// cap of ceil(|V|/n), so regions are connected where the graph permits
/// and exactly balanced in vertex count.
///
/// Returns the fragment id per vertex, each in [0, n).
Result<std::vector<uint32_t>> BasePartition(const Graph& g, size_t n);

}  // namespace qgp

#endif  // QGP_PARALLEL_BASE_PARTITIONER_H_
