#include "graph/graph.h"

namespace qgp {

void Graph::BuildLabelRuns(const std::vector<uint64_t>& offsets,
                           const std::vector<Neighbor>& nbrs,
                           std::vector<uint64_t>* run_offsets,
                           std::vector<LabelRun>* runs) {
  const size_t n = offsets.size() - 1;
  run_offsets->assign(n + 1, 0);
  runs->clear();
  for (size_t v = 0; v < n; ++v) {
    (*run_offsets)[v] = runs->size();
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (i == offsets[v] || nbrs[i].label != nbrs[i - 1].label) {
        runs->push_back(
            LabelRun{nbrs[i].label, static_cast<uint32_t>(i - offsets[v])});
      }
    }
  }
  (*run_offsets)[n] = runs->size();
}

std::span<const VertexId> Graph::VerticesWithLabel(Label label) const {
  if (label_offsets_.empty() ||
      static_cast<size_t>(label) >= label_offsets_.size() - 1) {
    return {};
  }
  return {label_sorted_.data() + label_offsets_[label],
          label_offsets_[label + 1] - label_offsets_[label]};
}

size_t Graph::MemoryBytes() const {
  return vertex_labels_.size() * sizeof(Label) +
         (out_nbrs_.size() + in_nbrs_.size()) * sizeof(Neighbor) +
         (out_offsets_.size() + in_offsets_.size()) * sizeof(uint64_t) +
         (out_runs_.size() + in_runs_.size()) * sizeof(LabelRun) +
         (out_run_offsets_.size() + in_run_offsets_.size()) *
             sizeof(uint64_t) +
         label_sorted_.size() * sizeof(VertexId);
}

}  // namespace qgp
