#include "parallel/partition.h"

#include <algorithm>
#include <span>

namespace qgp {

double Partition::Skew() const {
  if (fragments.empty()) return 1.0;
  size_t min_size = SIZE_MAX, max_size = 0;
  for (const Fragment& f : fragments) {
    min_size = std::min(min_size, f.SizeCost());
    max_size = std::max(max_size, f.SizeCost());
  }
  if (max_size == 0) return 1.0;
  return static_cast<double>(min_size) / static_cast<double>(max_size);
}

double Partition::ReplicationFactor(const Graph& g) const {
  size_t total = 0;
  for (const Fragment& f : fragments) total += f.SizeCost();
  size_t base = g.num_vertices() + g.num_edges();
  return base == 0 ? 0.0
                   : static_cast<double>(total) / static_cast<double>(base);
}

Status Partition::Validate(const Graph& g) const {
  // (1) Unique ownership covering all of V.
  std::vector<uint32_t> owner(g.num_vertices(), UINT32_MAX);
  for (size_t i = 0; i < fragments.size(); ++i) {
    for (VertexId v : fragments[i].owned_global) {
      if (v >= g.num_vertices()) {
        return Status::Corruption("owned vertex out of range");
      }
      if (owner[v] != UINT32_MAX) {
        return Status::Corruption("vertex " + std::to_string(v) +
                                  " owned by two fragments");
      }
      owner[v] = static_cast<uint32_t>(i);
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (owner[v] == UINT32_MAX) {
      return Status::Corruption("vertex " + std::to_string(v) +
                                " owned by no fragment");
    }
  }
  // (2) d-hop preservation, kMaxBallSources owned vertices per
  // multi-source BFS. mask[w] has bit i set iff w is in the ball of the
  // batch's i-th source, so an edge (w, x) is an induced edge of some
  // owned vertex's ball exactly when mask[w] & mask[x] != 0.
  const size_t n = g.num_vertices();
  std::vector<VertexId> local(n, kInvalidVertex);  // dense global -> local
  std::vector<uint64_t> mask(n, 0);
  std::vector<VertexId> members;  // vertices with a nonzero mask, ascending
  MultiBallScratch scratch;
  const BallFilter all_labels = BallFilter::Uniform(d);
  for (const Fragment& f : fragments) {
    for (const auto& [global, l] : f.sub.global_to_local) {
      if (global < n) local[global] = l;
    }
    const std::vector<VertexId>& owned = f.owned_global;
    for (size_t begin = 0; begin < owned.size(); begin += kMaxBallSources) {
      const size_t k = std::min(kMaxBallSources, owned.size() - begin);
      const std::span<const VertexId> sources(owned.data() + begin, k);
      KHopBallsFiltered(g, sources, d, all_labels, SIZE_MAX, &scratch);
      members.clear();
      for (uint32_t word : scratch.touched_words) {
        uint64_t any = 0;
        for (size_t i = 0; i < k; ++i) {
          uint64_t bits = scratch.BallWords(i)[word];
          any |= bits;
          while (bits != 0) {
            mask[(static_cast<size_t>(word) << 6) + __builtin_ctzll(bits)] |=
                1ULL << i;
            bits &= bits - 1;
          }
        }
        while (any != 0) {
          members.push_back(static_cast<VertexId>(
              (static_cast<size_t>(word) << 6) + __builtin_ctzll(any)));
          any &= any - 1;
        }
      }
      for (VertexId w : members) {
        if (local[w] == kInvalidVertex) {
          return Status::Corruption(
              "ball of owned vertex " +
              std::to_string(sources[__builtin_ctzll(mask[w])]) +
              " misses vertex " + std::to_string(w));
        }
      }
      for (VertexId w : members) {
        for (const Neighbor& nb : g.OutNeighbors(w)) {
          if ((mask[w] & mask[nb.v]) != 0 &&
              !f.sub.graph.HasEdge(local[w], local[nb.v], nb.label)) {
            return Status::Corruption("ball edge missing in fragment");
          }
        }
      }
      for (VertexId w : members) mask[w] = 0;
    }
    for (const auto& [global, l] : f.sub.global_to_local) {
      if (global < n) local[global] = kInvalidVertex;
    }
  }
  return Status::Ok();
}

}  // namespace qgp
