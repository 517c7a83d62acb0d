#include "graph/graph.h"

#include <algorithm>

namespace qgp {

namespace {

// Binary-search the [lo, hi) slice of a (label, v)-sorted neighbor array
// for the sub-range with the given label: O(log deg) at both ends.
std::span<const Neighbor> LabelSlice(const std::vector<Neighbor>& nbrs,
                                     uint64_t lo, uint64_t hi, Label label) {
  const Neighbor* begin = nbrs.data() + lo;
  const Neighbor* end = nbrs.data() + hi;
  auto cmp_lo = [](const Neighbor& n, Label l) { return n.label < l; };
  auto cmp_hi = [](Label l, const Neighbor& n) { return l < n.label; };
  const Neighbor* first = std::lower_bound(begin, end, label, cmp_lo);
  const Neighbor* last = std::upper_bound(first, end, label, cmp_hi);
  return {first, static_cast<size_t>(last - first)};
}

}  // namespace

std::span<const Neighbor> Graph::OutNeighborsWithLabel(VertexId v,
                                                       Label label) const {
  return LabelSlice(out_nbrs_, out_offsets_[v], out_offsets_[v + 1], label);
}

std::span<const Neighbor> Graph::InNeighborsWithLabel(VertexId v,
                                                      Label label) const {
  return LabelSlice(in_nbrs_, in_offsets_[v], in_offsets_[v + 1], label);
}

bool Graph::HasEdge(VertexId src, VertexId dst, Label label) const {
  std::span<const Neighbor> slice = OutNeighborsWithLabel(src, label);
  return std::binary_search(
      slice.begin(), slice.end(), Neighbor{dst, label},
      [](const Neighbor& a, const Neighbor& b) { return a.v < b.v; });
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
         label_sorted_.size() * sizeof(VertexId);
}

}  // namespace qgp
