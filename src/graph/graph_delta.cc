#include "graph/graph_delta.h"

#include <algorithm>
#include <cstddef>
#include <string>

namespace qgp {

namespace {

// GraphBuilder's edge order: by (src, label, dst) — grouped by source with
// each group already in adjacency order.
bool OutOrder(const EdgeTriple& a, const EdgeTriple& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.label != b.label) return a.label < b.label;
  return a.dst < b.dst;
}

// In-adjacency order: by (dst, label, src).
bool InOrder(const EdgeTriple& a, const EdgeTriple& b) {
  if (a.dst != b.dst) return a.dst < b.dst;
  if (a.label != b.label) return a.label < b.label;
  return a.src < b.src;
}

void SortUniqueOut(std::vector<EdgeTriple>* edges) {
  std::sort(edges->begin(), edges->end(), OutOrder);
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

bool NbrOrder(const Neighbor& a, const Neighbor& b) {
  if (a.label != b.label) return a.label < b.label;
  return a.v < b.v;
}

}  // namespace

GraphDelta ResolveDelta(const NamedGraphDelta& named, LabelDict* dict) {
  GraphDelta delta;
  delta.add_vertices.reserve(named.add_vertices.size());
  for (const std::string& l : named.add_vertices) {
    delta.add_vertices.push_back(dict->Intern(l));
  }
  delta.remove_vertices = named.remove_vertices;
  delta.add_edges.reserve(named.add_edges.size());
  for (const NamedGraphDelta::NamedEdge& e : named.add_edges) {
    delta.add_edges.push_back(EdgeTriple{e.src, e.dst, dict->Intern(e.label)});
  }
  delta.remove_edges.reserve(named.remove_edges.size());
  for (const NamedGraphDelta::NamedEdge& e : named.remove_edges) {
    // Find, don't intern: an unknown label means the edge cannot exist,
    // and kInvalidLabel removals are filtered as absent below.
    delta.remove_edges.push_back(EdgeTriple{e.src, e.dst, dict->Find(e.label)});
  }
  return delta;
}

void GraphDeltaSummary::MergeFrom(const GraphDeltaSummary& later) {
  version = later.version;
  vertices_added.insert(vertices_added.end(), later.vertices_added.begin(),
                        later.vertices_added.end());
  vertices_removed.insert(vertices_removed.end(),
                          later.vertices_removed.begin(),
                          later.vertices_removed.end());
  edges_added.insert(edges_added.end(), later.edges_added.begin(),
                     later.edges_added.end());
  edges_removed.insert(edges_removed.end(), later.edges_removed.begin(),
                       later.edges_removed.end());
}

std::vector<VertexId> TouchedVertices(const GraphDeltaSummary& summary,
                                      const DynamicBitset* edge_labels,
                                      const DynamicBitset* node_labels,
                                      bool additions_only) {
  auto edge_relevant = [&](Label l) {
    return edge_labels == nullptr ||
           (l < edge_labels->size() && edge_labels->Test(l));
  };
  auto node_relevant = [&](Label l) {
    return node_labels == nullptr ||
           (l < node_labels->size() && node_labels->Test(l));
  };
  std::vector<VertexId> touched;
  for (const EdgeTriple& e : summary.edges_added) {
    if (!edge_relevant(e.label)) continue;
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  for (const auto& [v, l] : summary.vertices_added) {
    if (node_relevant(l)) touched.push_back(v);
  }
  if (!additions_only) {
    for (const EdgeTriple& e : summary.edges_removed) {
      if (!edge_relevant(e.label)) continue;
      touched.push_back(e.src);
      touched.push_back(e.dst);
    }
    for (const auto& [v, l] : summary.vertices_removed) {
      if (node_relevant(l)) touched.push_back(v);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

Result<GraphDeltaSummary> Graph::ApplyDelta(const GraphDelta& delta) {
  const size_t old_n = vertex_labels_.size();
  const size_t new_n = old_n + delta.add_vertices.size();

  // ---- Validate everything up front; no mutation on any error path. ----
  auto dead_before = [&](VertexId v) {
    return v < old_n && vertex_labels_[v] == kInvalidLabel;
  };
  for (VertexId v : delta.remove_vertices) {
    if (v >= new_n) {
      return Status::InvalidArgument("remove_vertices id " +
                                     std::to_string(v) + " out of range");
    }
  }
  for (const EdgeTriple& e : delta.add_edges) {
    if (e.src >= new_n || e.dst >= new_n) {
      return Status::InvalidArgument("add_edges endpoint out of range");
    }
    if (e.label == kInvalidLabel) {
      return Status::InvalidArgument("add_edges label is invalid");
    }
    if (dead_before(e.src) || dead_before(e.dst)) {
      return Status::InvalidArgument(
          "add_edges endpoint is a removed vertex");
    }
  }
  for (const EdgeTriple& e : delta.remove_edges) {
    if (e.src >= new_n || e.dst >= new_n) {
      return Status::InvalidArgument("remove_edges endpoint out of range");
    }
  }

  GraphDeltaSummary summary;

  // ---- Stage 1: append vertices. ----
  vertex_labels_.reserve(new_n);
  for (Label l : delta.add_vertices) {
    summary.vertices_added.emplace_back(
        static_cast<VertexId>(vertex_labels_.size()), l);
    vertex_labels_.push_back(l);
  }

  // ---- Stages 2+3: net edge changes against the old adjacency. ----
  // Effective removals are edges actually present; effective additions are
  // edges absent or being removed in stage 2 (re-add). An edge in both
  // lists is a net no-op and cancels.
  std::vector<EdgeTriple> removes;
  for (const EdgeTriple& e : delta.remove_edges) {
    if (e.src < old_n && e.dst < old_n && HasEdge(e.src, e.dst, e.label)) {
      removes.push_back(e);
    }
  }
  SortUniqueOut(&removes);
  std::vector<EdgeTriple> adds;
  for (const EdgeTriple& e : delta.add_edges) {
    const bool present =
        e.src < old_n && e.dst < old_n && HasEdge(e.src, e.dst, e.label);
    const bool removed =
        std::binary_search(removes.begin(), removes.end(), e, OutOrder);
    if (!present || removed) adds.push_back(e);
  }
  SortUniqueOut(&adds);
  {
    std::vector<EdgeTriple> net_removes, net_adds;
    std::set_difference(removes.begin(), removes.end(), adds.begin(),
                        adds.end(), std::back_inserter(net_removes), OutOrder);
    std::set_difference(adds.begin(), adds.end(), removes.begin(),
                        removes.end(), std::back_inserter(net_adds), OutOrder);
    removes = std::move(net_removes);
    adds = std::move(net_adds);
  }

  // ---- Stage 4: tombstones drop their incident edges. ----
  std::vector<VertexId> dead;
  for (VertexId v : delta.remove_vertices) {
    if (vertex_labels_[v] != kInvalidLabel) dead.push_back(v);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  if (!dead.empty()) {
    DynamicBitset dead_bits(new_n);
    for (VertexId v : dead) dead_bits.Set(v);
    // Additions into a tombstoned vertex never materialize.
    adds.erase(std::remove_if(adds.begin(), adds.end(),
                              [&](const EdgeTriple& e) {
                                return dead_bits.Test(e.src) ||
                                       dead_bits.Test(e.dst);
                              }),
               adds.end());
    for (VertexId v : dead) {
      summary.vertices_removed.emplace_back(v, vertex_labels_[v]);
      vertex_labels_[v] = kInvalidLabel;
      if (v >= old_n) continue;  // added this batch: no old edges
      for (const Neighbor& nbr : OutNeighbors(v)) {
        removes.push_back(EdgeTriple{v, nbr.v, nbr.label});
      }
      for (const Neighbor& nbr : InNeighbors(v)) {
        removes.push_back(EdgeTriple{nbr.v, v, nbr.label});
      }
    }
    SortUniqueOut(&removes);
  }
  summary.edges_added = adds;
  summary.edges_removed = removes;

  // ---- Rebuild only the touched CSR slices. ----
  const size_t new_m = out_nbrs_.size() + adds.size() - removes.size();
  auto rebuild_side = [&](std::vector<uint64_t>* offsets,
                          std::vector<Neighbor>* nbrs,
                          std::vector<uint64_t>* run_offsets,
                          std::vector<LabelRun>* runs, bool out_side) {
    // Removals/additions per vertex, in this side's order.
    std::vector<EdgeTriple> side_adds = adds, side_removes = removes;
    if (!out_side) {
      std::sort(side_adds.begin(), side_adds.end(), InOrder);
      std::sort(side_removes.begin(), side_removes.end(), InOrder);
    }
    auto key = [out_side](const EdgeTriple& e) {
      return out_side ? e.src : e.dst;
    };
    auto other = [out_side](const EdgeTriple& e) {
      return out_side ? e.dst : e.src;
    };
    std::vector<uint64_t> new_offsets(new_n + 1, 0);
    std::vector<Neighbor> new_nbrs(new_m);
    size_t add_cur = 0, rem_cur = 0, write = 0;
    for (VertexId v = 0; v < new_n; ++v) {
      new_offsets[v] = write;
      const size_t add_begin = add_cur;
      while (add_cur < side_adds.size() && key(side_adds[add_cur]) == v) {
        ++add_cur;
      }
      const size_t rem_begin = rem_cur;
      while (rem_cur < side_removes.size() && key(side_removes[rem_cur]) == v) {
        ++rem_cur;
      }
      std::span<const Neighbor> old_slice;
      if (v < old_n) {
        old_slice = {nbrs->data() + (*offsets)[v],
                     (*offsets)[v + 1] - (*offsets)[v]};
      }
      if (add_begin == add_cur && rem_begin == rem_cur) {
        // Untouched: copy the old slice verbatim.
        std::copy(old_slice.begin(), old_slice.end(), new_nbrs.begin() + write);
        write += old_slice.size();
        continue;
      }
      // Merge: old entries minus removals, interleaved with additions.
      // All three sequences are in (label, endpoint) order.
      size_t rem_it = rem_begin, add_it = add_begin;
      for (const Neighbor& nbr : old_slice) {
        if (rem_it < rem_cur && side_removes[rem_it].label == nbr.label &&
            other(side_removes[rem_it]) == nbr.v) {
          ++rem_it;
          continue;
        }
        while (add_it < add_cur &&
               NbrOrder(Neighbor{other(side_adds[add_it]),
                                 side_adds[add_it].label},
                        nbr)) {
          new_nbrs[write++] =
              Neighbor{other(side_adds[add_it]), side_adds[add_it].label};
          ++add_it;
        }
        new_nbrs[write++] = nbr;
      }
      for (; add_it < add_cur; ++add_it) {
        new_nbrs[write++] =
            Neighbor{other(side_adds[add_it]), side_adds[add_it].label};
      }
    }
    new_offsets[new_n] = write;
    *offsets = std::move(new_offsets);
    *nbrs = std::move(new_nbrs);
    BuildLabelRuns(*offsets, *nbrs, run_offsets, runs);
  };
  rebuild_side(&out_offsets_, &out_nbrs_, &out_run_offsets_, &out_runs_,
               /*out_side=*/true);
  rebuild_side(&in_offsets_, &in_nbrs_, &in_run_offsets_, &in_runs_,
               /*out_side=*/false);

  // ---- Label index: rebuild when vertex membership or the label universe
  // changed; edge-only deltas leave it untouched. ----
  const size_t num_labels = dict_.size();
  if (!delta.add_vertices.empty() || !dead.empty() ||
      label_offsets_.size() != num_labels + 1) {
    label_offsets_.assign(num_labels + 1, 0);
    for (Label l : vertex_labels_) {
      if (l < num_labels) ++label_offsets_[l + 1];
    }
    for (size_t i = 0; i < num_labels; ++i) {
      label_offsets_[i + 1] += label_offsets_[i];
    }
    label_sorted_.resize(new_n);
    std::vector<uint64_t> cursor(label_offsets_.begin(),
                                 label_offsets_.end() - 1);
    size_t indexed = 0;
    for (VertexId v = 0; v < new_n; ++v) {
      Label l = vertex_labels_[v];
      if (l < num_labels) {
        label_sorted_[cursor[l]++] = v;
        ++indexed;
      }
    }
    label_sorted_.resize(indexed);
  }

  summary.version = ++version_;
  return summary;
}

Status Graph::ValidateInvariants() const {
  const size_t n = vertex_labels_.size();
  const size_t m = out_nbrs_.size();
  auto check_side = [&](const std::vector<uint64_t>& offsets,
                        const std::vector<Neighbor>& nbrs,
                        const std::vector<uint64_t>& run_offsets,
                        const std::vector<LabelRun>& runs,
                        const char* side) -> Status {
    if (offsets.size() != n + 1 || offsets[0] != 0 || offsets[n] != m ||
        nbrs.size() != m) {
      return Status::Corruption(std::string(side) + " offsets inconsistent");
    }
    for (size_t v = 0; v < n; ++v) {
      if (offsets[v] > offsets[v + 1]) {
        return Status::Corruption(std::string(side) + " offsets not monotone");
      }
      for (size_t i = offsets[v]; i + 1 < offsets[v + 1]; ++i) {
        if (!NbrOrder(nbrs[i], nbrs[i + 1]) && !(nbrs[i] == nbrs[i + 1])) {
          return Status::Corruption(std::string(side) +
                                    " slice not sorted by (label, id)");
        }
        if (nbrs[i] == nbrs[i + 1]) {
          return Status::Corruption(std::string(side) +
                                    " slice has duplicate entry");
        }
      }
      for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (nbrs[i].v >= n) {
          return Status::Corruption(std::string(side) +
                                    " endpoint out of range");
        }
      }
    }
    // Label runs: v's runs start at 0, ascend, each is one label, and a
    // new run starts exactly where the label changes, so they tile v's
    // adjacency with maximal runs.
    if (run_offsets.size() != n + 1 || run_offsets[0] != 0 ||
        run_offsets[n] != runs.size()) {
      return Status::Corruption(std::string(side) +
                                " label-run offsets inconsistent");
    }
    for (size_t v = 0; v < n; ++v) {
      if (run_offsets[v] > run_offsets[v + 1] ||
          run_offsets[v + 1] > runs.size()) {
        return Status::Corruption(std::string(side) +
                                  " label-run offsets not monotone");
      }
      size_t r = run_offsets[v];
      for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (i == offsets[v] || nbrs[i].label != nbrs[i - 1].label) {
          if (r == run_offsets[v + 1] || runs[r].start != i - offsets[v] ||
              runs[r].label != nbrs[i].label) {
            return Status::Corruption(std::string(side) +
                                      " label runs do not tile adjacency");
          }
          ++r;
        }
      }
      if (r != run_offsets[v + 1]) {
        return Status::Corruption(std::string(side) +
                                  " label runs past the adjacency");
      }
    }
    return Status::Ok();
  };
  if (Status s = check_side(out_offsets_, out_nbrs_, out_run_offsets_,
                            out_runs_, "out");
      !s.ok()) {
    return s;
  }
  if (Status s = check_side(in_offsets_, in_nbrs_, in_run_offsets_, in_runs_,
                            "in");
      !s.ok()) {
    return s;
  }

  // Out/in mirror: every out-edge appears exactly once in the in-list of
  // its destination (sizes match, so one direction suffices).
  for (VertexId v = 0; v < n; ++v) {
    for (const Neighbor& nbr : OutNeighbors(v)) {
      std::span<const Neighbor> in = InNeighbors(nbr.v);
      if (!std::binary_search(in.begin(), in.end(),
                              Neighbor{v, nbr.label}, NbrOrder)) {
        return Status::Corruption("out-edge missing from in-adjacency");
      }
    }
  }

  // Tombstones carry no edges.
  for (VertexId v = 0; v < n; ++v) {
    if (vertex_labels_[v] == kInvalidLabel &&
        (OutDegree(v) != 0 || InDegree(v) != 0)) {
      return Status::Corruption("tombstoned vertex has incident edges");
    }
  }

  // Label index: sized to the dict, rows sorted, and membership exactly
  // the vertices carrying each label.
  const size_t num_labels = dict_.size();
  if (label_offsets_.size() != num_labels + 1) {
    return Status::Corruption("label index not sized to dict");
  }
  std::vector<size_t> expected(num_labels, 0);
  for (Label l : vertex_labels_) {
    if (l < num_labels) ++expected[l];
  }
  for (size_t l = 0; l < num_labels; ++l) {
    std::span<const VertexId> row = VerticesWithLabel(static_cast<Label>(l));
    if (row.size() != expected[l]) {
      return Status::Corruption("label index row size mismatch");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i + 1 < row.size() && row[i] >= row[i + 1]) {
        return Status::Corruption("label index row not ascending");
      }
      if (row[i] >= n || vertex_labels_[row[i]] != l) {
        return Status::Corruption("label index row has wrong member");
      }
    }
  }
  return Status::Ok();
}

bool ContentEquals(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  if (a.dict().size() != b.dict().size()) return false;
  for (Label l = 0; l < a.dict().size(); ++l) {
    if (a.dict().Name(l) != b.dict().Name(l)) return false;
  }
  const size_t n = a.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (a.vertex_label(v) != b.vertex_label(v)) return false;
    std::span<const Neighbor> ao = a.OutNeighbors(v), bo = b.OutNeighbors(v);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end())) return false;
    std::span<const Neighbor> ai = a.InNeighbors(v), bi = b.InNeighbors(v);
    if (!std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) return false;
  }
  for (Label l = 0; l < a.dict().size(); ++l) {
    std::span<const VertexId> al = a.VerticesWithLabel(l),
                              bl = b.VerticesWithLabel(l);
    if (!std::equal(al.begin(), al.end(), bl.begin(), bl.end())) return false;
  }
  return true;
}

}  // namespace qgp
