#include "parallel/dpar.h"

#include <algorithm>
#include <utility>

#include "common/bitset.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/vertex_set.h"
#include "parallel/base_partitioner.h"
#include "parallel/mkp.h"

namespace qgp {

namespace {

// The partitioning phases below fan out as chunked tasks but must yield
// the exact same Partition at any thread count (the serial schedule is
// the spec). The discipline is the usual flag-then-compact: a parallel
// phase writes only chunk-owned slots against inputs frozen for the
// phase, and the merges are chunk-order-insensitive (integer sums, or a
// sort to a canonical order) — so even the chunk COUNT, which depends on
// the pool width, cannot leak into the result.

// Grain that splits [0, n) into at most `chunks` contiguous near-equal
// chunks. A fan-out at this grain hands out [k·grain, (k+1)·grain), so
// `begin / grain` indexes a per-chunk buffer (an inline run is chunk 0).
size_t GrainFor(size_t n, size_t chunks) {
  chunks = std::max<size_t>(1, chunks);
  return std::max<size_t>(1, (n + chunks - 1) / chunks);
}

// Builds the d-hop preserving partition on top of an existing base
// region assignment (shared by DPar and DParExtend).
Result<Partition> BuildFromBase(const Graph& g,
                                std::vector<uint32_t> base_region, int d,
                                size_t n, double balance_factor,
                                DParTimings* timings, ThreadPool* pool) {
  WallTimer phase_timer;
  if (n == 0) return Status::InvalidArgument("need >= 1 fragment");
  if (d < 0) return Status::InvalidArgument("d must be >= 0");
  if (balance_factor < 1.0) {
    return Status::InvalidArgument("balance factor must be >= 1");
  }
  const size_t nv = g.num_vertices();
  const size_t width = pool != nullptr ? pool->width() : 1;

  // --- Border detection: border(v) <=> some vertex of another region is
  // within d undirected hops <=> dist(v, boundary vertices) <= d-1, where
  // boundary vertices have a direct foreign neighbor. The boundary scan
  // fans out per-vertex; the truncated multi-source BFS runs in
  // level-synchronous rounds (expand in parallel against a frozen dist
  // array, claim sequentially, sort the next frontier canonical).
  std::vector<char> border(nv, 0);
  if (d >= 1) {
    std::vector<char> boundary(nv, 0);
    ThreadPool::ParallelForDynamic(
        pool, nv, GrainFor(nv, width * 4), [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const VertexId v = static_cast<VertexId>(i);
            bool is_boundary = false;
            for (const Neighbor& nb : g.OutNeighbors(v)) {
              if (base_region[nb.v] != base_region[v]) {
                is_boundary = true;
                break;
              }
            }
            if (!is_boundary) {
              for (const Neighbor& nb : g.InNeighbors(v)) {
                if (base_region[nb.v] != base_region[v]) {
                  is_boundary = true;
                  break;
                }
              }
            }
            boundary[i] = is_boundary ? 1 : 0;
          }
        });
    std::vector<uint32_t> dist(nv, UINT32_MAX);
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < nv; ++v) {
      if (boundary[v]) {
        dist[v] = 0;
        border[v] = 1;
        frontier.push_back(v);
      }
    }
    const uint32_t limit = static_cast<uint32_t>(d - 1);
    for (uint32_t level = 0; level < limit && !frontier.empty(); ++level) {
      // Expand: dist is frozen this round, so concurrent reads are safe;
      // each chunk appends discoveries (possibly duplicated across
      // chunks) to its own buffer.
      const size_t grain = GrainFor(frontier.size(), width * 4);
      std::vector<std::vector<VertexId>> found(
          (frontier.size() + grain - 1) / grain);
      auto expand = [&](size_t begin, size_t end) {
        std::vector<VertexId>& out = found[begin / grain];
        for (size_t i = begin; i < end; ++i) {
          const VertexId v = frontier[i];
          auto visit = [&](VertexId w) {
            if (dist[w] == UINT32_MAX) out.push_back(w);
          };
          for (const Neighbor& nb : g.OutNeighbors(v)) visit(nb.v);
          for (const Neighbor& nb : g.InNeighbors(v)) visit(nb.v);
        }
      };
      ThreadPool::ParallelForDynamic(pool, frontier.size(), grain, expand);
      // Claim: sequential dedup; every claim gets the same level value,
      // and the sort makes the next frontier canonical, so neither the
      // chunking nor the schedule can affect dist or border.
      std::vector<VertexId> next;
      for (const std::vector<VertexId>& f : found) {
        for (VertexId w : f) {
          if (dist[w] == UINT32_MAX) {
            dist[w] = level + 1;
            border[w] = 1;
            next.push_back(w);
          }
        }
      }
      std::sort(next.begin(), next.end());
      frontier = std::move(next);
    }
  }

  if (timings != nullptr) {
    timings->border_detect_seconds = phase_timer.ElapsedSeconds();
    timings->ball_seconds.assign(n, 0.0);
    timings->materialize_seconds.assign(n, 0.0);
  }

  // --- Base fragment sizes (vertices + induced edges), merged from
  // per-chunk partial counts (integer sums: merge order irrelevant).
  std::vector<uint64_t> est_size(n, 0);
  {
    const size_t grain = GrainFor(nv, width * 4);
    std::vector<std::vector<uint64_t>> partial(
        (nv + grain - 1) / grain, std::vector<uint64_t>(n, 0));
    auto count = [&](size_t begin, size_t end) {
      std::vector<uint64_t>& p = partial[begin / grain];
      for (size_t i = begin; i < end; ++i) {
        const VertexId v = static_cast<VertexId>(i);
        p[base_region[v]] += 1;
        for (const Neighbor& nb : g.OutNeighbors(v)) {
          if (base_region[nb.v] == base_region[v]) ++p[base_region[v]];
        }
      }
    };
    ThreadPool::ParallelForDynamic(pool, nv, grain, count);
    for (const std::vector<uint64_t>& p : partial) {
      for (size_t k = 0; k < n; ++k) est_size[k] += p[k];
    }
  }

  // --- Balls for border nodes: extraction and size estimation fan out
  // per border node (each task writes only balls[i] / items[i]); the
  // reusable membership bitset is per-chunk scratch.
  std::vector<VertexId> border_nodes;
  for (VertexId v = 0; v < nv; ++v) {
    if (border[v]) border_nodes.push_back(v);
  }
  std::vector<std::vector<VertexId>> balls(border_nodes.size());
  std::vector<MkpItem> items(border_nodes.size());
  std::vector<double> ball_secs(border_nodes.size(), 0.0);
  ThreadPool::ParallelForDynamic(
      pool, border_nodes.size(), GrainFor(border_nodes.size(), width * 8),
      [&](size_t begin, size_t end) {
        SparseBitset member;
        member.EnsureUniverse(nv);
        for (size_t i = begin; i < end; ++i) {
          WallTimer ball_timer;
          balls[i] = KHopBall(g, border_nodes[i], d);
          uint64_t edges = 0;
          for (VertexId v : balls[i]) member.Set(v);
          for (VertexId v : balls[i]) {
            for (const Neighbor& nb : g.OutNeighbors(v)) {
              if (member.Test(nb.v)) ++edges;
            }
          }
          member.ResetTouched();
          items[i] = MkpItem{balls[i].size() + edges, i};
          ball_secs[i] = ball_timer.ElapsedSeconds();
        }
      });
  if (timings != nullptr) {
    // Ball work is done by the border node's home worker.
    for (size_t i = 0; i < border_nodes.size(); ++i) {
      timings->ball_seconds[base_region[border_nodes[i]]] += ball_secs[i];
    }
  }
  phase_timer.Restart();

  // --- MKP assignment of balls to fragments. Kept sequential over items
  // in border-node index order — the greedy solve and the completion
  // step are order-sensitive, and a fixed order regardless of which
  // thread produced each item is what keeps the partition deterministic.
  const uint64_t graph_size = nv + g.num_edges();
  const uint64_t cap = static_cast<uint64_t>(
      balance_factor * static_cast<double>(graph_size) /
      static_cast<double>(n));
  std::vector<uint64_t> capacities(n);
  for (size_t i = 0; i < n; ++i) {
    capacities[i] = cap > est_size[i] ? cap - est_size[i] : 0;
  }
  MkpAssignment assignment = SolveMkpGreedy(items, capacities);

  std::vector<int32_t> owner_of_border(border_nodes.size(), -1);
  for (size_t i = 0; i < border_nodes.size(); ++i) {
    int32_t bin = assignment.item_to_bin[i];
    if (bin >= 0) {
      owner_of_border[i] = bin;
      est_size[bin] += items[i].weight;
    }
  }
  // Completion step: unassigned balls go to the fragment minimizing the
  // resulting max-min spread.
  for (size_t i = 0; i < border_nodes.size(); ++i) {
    if (owner_of_border[i] >= 0) continue;
    size_t best = 0;
    uint64_t best_spread = UINT64_MAX;
    for (size_t bin = 0; bin < n; ++bin) {
      uint64_t trial = est_size[bin] + items[i].weight;
      uint64_t mx = trial, mn = trial;
      for (size_t k = 0; k < n; ++k) {
        uint64_t s = k == bin ? trial : est_size[k];
        mx = std::max(mx, s);
        mn = std::min(mn, s);
      }
      if (mx - mn < best_spread) {
        best_spread = mx - mn;
        best = bin;
      }
    }
    owner_of_border[i] = static_cast<int32_t>(best);
    est_size[best] += items[i].weight;
  }

  if (timings != nullptr) {
    timings->mkp_seconds = phase_timer.ElapsedSeconds();
  }

  // --- Materialize fragments: the scatter stays sequential (cheap), the
  // per-fragment sort + induced-subgraph extraction fans out one
  // fragment per task.
  std::vector<std::vector<VertexId>> node_sets(n);
  std::vector<std::vector<VertexId>> owned(n);
  for (VertexId v = 0; v < nv; ++v) {
    node_sets[base_region[v]].push_back(v);
    if (!border[v]) owned[base_region[v]].push_back(v);
  }
  for (size_t i = 0; i < border_nodes.size(); ++i) {
    const size_t bin = static_cast<size_t>(owner_of_border[i]);
    owned[bin].push_back(border_nodes[i]);
    node_sets[bin].insert(node_sets[bin].end(), balls[i].begin(),
                          balls[i].end());
  }

  Partition partition;
  partition.d = d;
  partition.num_border_nodes = border_nodes.size();
  partition.base_region = std::move(base_region);
  partition.fragments.resize(n);
  std::vector<Status> frag_status(n, Status::Ok());
  std::vector<double> mat_secs(n, 0.0);
  ThreadPool::ParallelForDynamic(pool, n, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      WallTimer mat_timer;
      std::sort(node_sets[i].begin(), node_sets[i].end());
      node_sets[i].erase(
          std::unique(node_sets[i].begin(), node_sets[i].end()),
          node_sets[i].end());
      Result<InducedSubgraph> sub = ExtractInducedSubgraph(g, node_sets[i]);
      if (!sub.ok()) {
        frag_status[i] = sub.status();
        continue;
      }
      Fragment& frag = partition.fragments[i];
      frag.sub = std::move(sub).value();
      mat_secs[i] = mat_timer.ElapsedSeconds();
      std::sort(owned[i].begin(), owned[i].end());
      frag.owned_global = owned[i];
      frag.owned_local.reserve(owned[i].size());
      for (VertexId v : owned[i]) {
        frag.owned_local.push_back(frag.sub.global_to_local.at(v));
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    QGP_RETURN_IF_ERROR(frag_status[i]);
    if (timings != nullptr) timings->materialize_seconds[i] = mat_secs[i];
  }
  return partition;
}

}  // namespace

double DParTimings::ParallelSeconds() const {
  auto vec_max = [](const std::vector<double>& v) {
    double m = 0;
    for (double x : v) m = std::max(m, x);
    return m;
  };
  return base_partition_seconds + border_detect_seconds + mkp_seconds +
         vec_max(ball_seconds) + vec_max(materialize_seconds);
}

double DParTimings::SequentialSeconds() const {
  auto vec_sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  return base_partition_seconds + border_detect_seconds + mkp_seconds +
         vec_sum(ball_seconds) + vec_sum(materialize_seconds);
}

Result<Partition> DPar(const Graph& g, const DParConfig& config,
                       DParTimings* timings, ThreadPool* pool) {
  WallTimer base_timer;
  QGP_ASSIGN_OR_RETURN(std::vector<uint32_t> base,
                       BasePartition(g, config.num_fragments));
  if (timings != nullptr) {
    timings->base_partition_seconds = base_timer.ElapsedSeconds();
  }
  return BuildFromBase(g, std::move(base), config.d, config.num_fragments,
                       config.balance_factor, timings, pool);
}

Result<Partition> DParExtend(const Graph& g, const Partition& partition,
                             int new_d, double balance_factor,
                             ThreadPool* pool) {
  if (new_d <= partition.d) {
    return Status::InvalidArgument("DParExtend requires new_d > current d");
  }
  if (partition.base_region.size() != g.num_vertices()) {
    return Status::InvalidArgument(
        "partition lacks a base region assignment for this graph");
  }
  return BuildFromBase(g, partition.base_region, new_d,
                       partition.fragments.size(), balance_factor, nullptr,
                       pool);
}

}  // namespace qgp
