#include "core/simulation.h"

#include <algorithm>

#include "common/bitset.h"

namespace qgp {

namespace {

// Chunk floor for parallel member checks: below this many members a
// chunk is not worth a queue round-trip.
constexpr size_t kSimGrain = 256;

}  // namespace

std::vector<std::vector<VertexId>> DualSimulation(
    const Pattern& pattern, const Graph& g, ThreadPool* pool,
    const std::vector<CandidateSetRef>* seeds, const CancelToken* cancel) {
  const size_t nq = pattern.num_nodes();
  // Membership bitmaps per pattern node. A seeded node starts from its
  // (tighter) interned label/degree set instead of the label scan; both
  // starts contain the greatest fixpoint, so the rounds below converge
  // to the same sets either way (see the header note).
  std::vector<DynamicBitset> in_sim(nq, DynamicBitset(g.num_vertices()));
  std::vector<std::vector<VertexId>> sim(nq);
  for (PatternNodeId u = 0; u < nq; ++u) {
    const CandidateSet* seed =
        (seeds != nullptr && u < seeds->size()) ? (*seeds)[u].get() : nullptr;
    if (seed != nullptr) {
      sim[u] = seed->members;
      for (VertexId v : sim[u]) in_sim[u].Set(v);
      continue;
    }
    for (VertexId v : g.VerticesWithLabel(pattern.node(u).label)) {
      in_sim[u].Set(v);
      sim[u].push_back(v);
    }
  }

  // Does v still simulate u, judged against the current bitmaps?
  auto member_ok = [&](PatternNodeId u, VertexId v) {
    for (PatternEdgeId e : pattern.OutEdgeIds(u)) {
      const PatternEdge& pe = pattern.edge(e);
      bool found = false;
      for (const Neighbor& n : g.OutNeighborsWithLabel(v, pe.label)) {
        if (in_sim[pe.dst].Test(n.v)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    for (PatternEdgeId e : pattern.InEdgeIds(u)) {
      const PatternEdge& pe = pattern.edge(e);
      bool found = false;
      for (const Neighbor& n : g.InNeighborsWithLabel(v, pe.label)) {
        if (in_sim[pe.src].Test(n.v)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  };

  // Synchronous refinement rounds. The flag phase only READS the bitmaps
  // (all of them frozen for the round) and writes disjoint keep slots, so
  // it parallelizes without coordination; the apply phase then compacts
  // and clears serially. Deferring removals to the round boundary can
  // cost extra rounds versus in-place clearing, but converges to the same
  // unique greatest fixpoint — and makes the schedule irrelevant.
  std::vector<std::vector<char>> keep(nq);
  // About 4 flag chunks per runner, none under kSimGrain members.
  const size_t spread = 4 * (pool != nullptr ? pool->width() : 1);
  bool changed = true;
  while (changed) {
    // Cancellation point, once per round: an early break leaves every
    // set a superset of the fixpoint (rounds only remove), which the
    // Status-returning callers discard after checking the token — the
    // partial sets never escape into caches or answers.
    if (cancel != nullptr && cancel->ShouldStop()) break;
    changed = false;
    for (PatternNodeId u = 0; u < nq; ++u) {
      std::vector<VertexId>& members = sim[u];
      keep[u].assign(members.size(), 1);
      std::vector<char>& flags = keep[u];
      auto flag_range = [&, u](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (!member_ok(u, members[i])) flags[i] = 0;
        }
      };
      ThreadPool::ParallelForDynamic(
          pool, members.size(),
          std::max(kSimGrain, (members.size() + spread - 1) / spread),
          flag_range);
    }
    for (PatternNodeId u = 0; u < nq; ++u) {
      std::vector<VertexId>& members = sim[u];
      size_t kept = 0;
      for (size_t i = 0; i < members.size(); ++i) {
        if (keep[u][i]) {
          members[kept++] = members[i];
        } else {
          in_sim[u].Clear(members[i]);
          changed = true;
        }
      }
      members.resize(kept);
    }
  }
  return sim;
}

}  // namespace qgp
