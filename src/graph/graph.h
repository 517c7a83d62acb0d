#ifndef QGP_GRAPH_GRAPH_H_
#define QGP_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/label_dict.h"
#include "graph/types.h"

namespace qgp {

struct GraphDelta;
struct GraphDeltaSummary;

/// Labeled directed graph G = (V, E, L) (paper §2.1), stored as CSR with
/// both out- and in-adjacency, each sorted by (label, endpoint). Every
/// vertex carries exactly one node label; every edge one edge label.
/// Parallel edges with distinct labels are allowed; exact duplicates are
/// removed at build time.
///
/// Each side also keeps a label-run directory: per vertex, its maximal
/// runs of equal edge label in ascending label order, each an 8-byte
/// LabelRun (the label plus the run's start relative to the vertex's first
/// edge), indexed by per-vertex offsets. A label slice is then a scan over
/// the vertex's few distinct labels (at most 9 on the benchmark graphs),
/// with no search over its edges. The directory holds one entry per
/// (vertex, label) pair per side plus V+1 offsets per side; a vertex's
/// degree per side must stay below 2^32.
///
/// Construction goes through GraphBuilder. Afterwards the only mutation
/// entry point is ApplyDelta (graph_delta.h), which applies a whole batch
/// under external synchronization and bumps version(); between deltas the
/// graph is immutable, which is what makes the matchers and the
/// partitioner trivially shareable across threads.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Number of vertices / directed edges.
  size_t num_vertices() const { return vertex_labels_.size(); }
  size_t num_edges() const { return out_nbrs_.size(); }

  /// Node label of `v`. Precondition: v < num_vertices().
  Label vertex_label(VertexId v) const { return vertex_labels_[v]; }

  /// All out-neighbors of `v`, sorted by (label, dst).
  std::span<const Neighbor> OutNeighbors(VertexId v) const {
    return {out_nbrs_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// All in-neighbors of `v`, sorted by (label, src).
  std::span<const Neighbor> InNeighbors(VertexId v) const {
    return {in_nbrs_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Out-neighbors of `v` reached via an edge labeled `label`; this is the
  /// paper's Me(v) for a pattern edge e with LQ(e) = label. O(number of
  /// distinct labels at v); empty for a label v has no edge with.
  std::span<const Neighbor> OutNeighborsWithLabel(VertexId v,
                                                  Label label) const {
    return LabelSlice(out_offsets_, out_nbrs_, out_run_offsets_, out_runs_, v,
                      label);
  }

  /// In-neighbors of `v` via edges labeled `label`.
  std::span<const Neighbor> InNeighborsWithLabel(VertexId v,
                                                 Label label) const {
    return LabelSlice(in_offsets_, in_nbrs_, in_run_offsets_, in_runs_, v,
                      label);
  }

  /// Degree helpers.
  size_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  size_t OutDegreeWithLabel(VertexId v, Label label) const {
    return OutNeighborsWithLabel(v, label).size();
  }
  size_t InDegreeWithLabel(VertexId v, Label label) const {
    return InNeighborsWithLabel(v, label).size();
  }

  /// True iff edge (src, dst) with `label` exists: the label slice, then
  /// O(log) over that slice.
  bool HasEdge(VertexId src, VertexId dst, Label label) const {
    std::span<const Neighbor> slice = OutNeighborsWithLabel(src, label);
    return std::binary_search(
        slice.begin(), slice.end(), Neighbor{dst, label},
        [](const Neighbor& a, const Neighbor& b) { return a.v < b.v; });
  }

  /// Vertices carrying node label `label`, ascending. Empty span for
  /// labels that no vertex carries.
  std::span<const VertexId> VerticesWithLabel(Label label) const;

  /// Number of vertices with node label `label`.
  size_t NumVerticesWithLabel(Label label) const {
    return VerticesWithLabel(label).size();
  }

  /// Label dictionary shared by node and edge labels.
  const LabelDict& dict() const { return dict_; }
  LabelDict& mutable_dict() { return dict_; }

  /// Applies one mutation batch (see graph_delta.h for semantics) and
  /// returns the net changes. Monotonically bumps version() on success;
  /// leaves the graph untouched on error. Not thread-safe: callers
  /// (QueryEngine::ApplyDelta) must exclude concurrent readers.
  Result<GraphDeltaSummary> ApplyDelta(const GraphDelta& delta);

  /// Number of successfully applied deltas since construction. Caches
  /// keyed on graph content stamp entries with this and treat a mismatch
  /// as stale.
  uint64_t version() const { return version_; }

  /// Checks the CSR invariants the matchers rely on: offsets monotone and
  /// consistent with array sizes, adjacency sorted by (label, endpoint),
  /// out/in mirrors of each other, label index consistent with vertex
  /// labels, tombstoned vertices edge-free, and each label-run directory
  /// tiling its vertex's adjacency with ascending, maximal, same-label
  /// runs. O(V + E); tests re-assert this after every delta.
  Status ValidateInvariants() const;

  /// Approximate resident bytes: the CSR arrays, the label-run
  /// directories and the label index.
  size_t MemoryBytes() const;

 private:
  friend class GraphBuilder;

  // One maximal run of equal edge label in a vertex's adjacency. The run
  // ends where the vertex's next run starts, or at its degree.
  struct LabelRun {
    Label label;
    uint32_t start;  // relative to the vertex's first edge
  };

  static std::span<const Neighbor> LabelSlice(
      const std::vector<uint64_t>& offsets, const std::vector<Neighbor>& nbrs,
      const std::vector<uint64_t>& run_offsets,
      const std::vector<LabelRun>& runs, VertexId v, Label label) {
    const LabelRun* run = runs.data() + run_offsets[v];
    const LabelRun* last = runs.data() + run_offsets[v + 1];
    while (run != last && run->label < label) ++run;
    if (run == last || run->label != label) return {};
    const uint64_t first = offsets[v];
    const uint64_t end =
        run + 1 != last ? first + run[1].start : offsets[v + 1];
    return {nbrs.data() + first + run->start, end - first - run->start};
  }

  // Rebuilds one side's label-run directory from its CSR arrays.
  static void BuildLabelRuns(const std::vector<uint64_t>& offsets,
                             const std::vector<Neighbor>& nbrs,
                             std::vector<uint64_t>* run_offsets,
                             std::vector<LabelRun>* runs);

  LabelDict dict_;
  std::vector<Label> vertex_labels_;

  std::vector<uint64_t> out_offsets_;  // size V+1
  std::vector<Neighbor> out_nbrs_;     // sorted by (label, v) per vertex
  std::vector<uint64_t> in_offsets_;   // size V+1
  std::vector<Neighbor> in_nbrs_;      // sorted by (label, v) per vertex

  // Label-run directories: v's runs are runs_[run_offsets_[v] ..
  // run_offsets_[v + 1]), ascending by label.
  std::vector<uint64_t> out_run_offsets_;  // size V+1
  std::vector<LabelRun> out_runs_;
  std::vector<uint64_t> in_run_offsets_;  // size V+1
  std::vector<LabelRun> in_runs_;

  // Vertices grouped by node label: label_offsets_ indexes label_sorted_.
  std::vector<uint64_t> label_offsets_;  // size num_labels+1
  std::vector<VertexId> label_sorted_;

  // Bumped by ApplyDelta; 0 for a freshly built graph.
  uint64_t version_ = 0;
};

}  // namespace qgp

#endif  // QGP_GRAPH_GRAPH_H_
