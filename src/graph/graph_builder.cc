#include "graph/graph_builder.h"

#include <algorithm>

#include "common/string_util.h"

namespace qgp {

VertexId GraphBuilder::AddVertex(std::string_view label_name) {
  return AddVertexWithLabel(dict_.Intern(label_name));
}

VertexId GraphBuilder::AddVertexWithLabel(Label label) {
  VertexId id = static_cast<VertexId>(vertex_labels_.size());
  vertex_labels_.push_back(label);
  return id;
}

Status GraphBuilder::AddEdge(VertexId src, VertexId dst,
                             std::string_view label_name) {
  return AddEdgeWithLabel(src, dst, dict_.Intern(label_name));
}

Status GraphBuilder::AddEdgeWithLabel(VertexId src, VertexId dst,
                                      Label label) {
  if (src >= vertex_labels_.size() || dst >= vertex_labels_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (label == kInvalidLabel) {
    return Status::InvalidArgument("edge label is invalid");
  }
  edges_.push_back(EdgeTriple{src, dst, label});
  return Status::Ok();
}

Result<Graph> GraphBuilder::Build() && {
  Graph g;
  g.dict_ = std::move(dict_);
  g.vertex_labels_ = std::move(vertex_labels_);
  const size_t n = g.vertex_labels_.size();

  // Deduplicate exact (src, dst, label) triples.
  std::sort(edges_.begin(), edges_.end(),
            [](const EdgeTriple& a, const EdgeTriple& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.label != b.label) return a.label < b.label;
              return a.dst < b.dst;
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  const size_t m = edges_.size();

  // Out-CSR: edges_ is already grouped by src and sorted by (label, dst).
  g.out_offsets_.assign(n + 1, 0);
  for (const EdgeTriple& e : edges_) ++g.out_offsets_[e.src + 1];
  for (size_t i = 0; i < n; ++i) g.out_offsets_[i + 1] += g.out_offsets_[i];
  g.out_nbrs_.resize(m);
  {
    size_t i = 0;
    for (const EdgeTriple& e : edges_) {
      g.out_nbrs_[i++] = Neighbor{e.dst, e.label};
    }
  }

  // In-CSR: counting sort by dst, then sort each in-list by (label, src).
  g.in_offsets_.assign(n + 1, 0);
  for (const EdgeTriple& e : edges_) ++g.in_offsets_[e.dst + 1];
  for (size_t i = 0; i < n; ++i) g.in_offsets_[i + 1] += g.in_offsets_[i];
  g.in_nbrs_.resize(m);
  {
    std::vector<uint64_t> cursor(g.in_offsets_.begin(),
                                 g.in_offsets_.end() - 1);
    for (const EdgeTriple& e : edges_) {
      g.in_nbrs_[cursor[e.dst]++] = Neighbor{e.src, e.label};
    }
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(g.in_nbrs_.begin() + static_cast<ptrdiff_t>(g.in_offsets_[v]),
              g.in_nbrs_.begin() + static_cast<ptrdiff_t>(g.in_offsets_[v + 1]),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.label != b.label) return a.label < b.label;
                return a.v < b.v;
              });
  }

  Graph::BuildLabelRuns(g.out_offsets_, g.out_nbrs_, &g.out_run_offsets_,
                        &g.out_runs_);
  Graph::BuildLabelRuns(g.in_offsets_, g.in_nbrs_, &g.in_run_offsets_,
                        &g.in_runs_);

  // Label→vertices index.
  const size_t num_labels = g.dict_.size();
  g.label_offsets_.assign(num_labels + 1, 0);
  for (Label l : g.vertex_labels_) {
    if (l < num_labels) ++g.label_offsets_[l + 1];
  }
  for (size_t i = 0; i < num_labels; ++i) {
    g.label_offsets_[i + 1] += g.label_offsets_[i];
  }
  g.label_sorted_.resize(n);
  {
    std::vector<uint64_t> cursor(g.label_offsets_.begin(),
                                 g.label_offsets_.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      Label l = g.vertex_labels_[v];
      if (l < num_labels) g.label_sorted_[cursor[l]++] = v;
    }
  }

  edges_.clear();
  return g;
}

}  // namespace qgp
