#include "core/candidate_space.h"

#include <algorithm>
#include <optional>

#include "common/thread_pool.h"
#include "core/simulation.h"
#include "graph/graph_delta.h"

namespace qgp {

namespace {

// Chunk floor for parallel per-member work (good-set upper-bound checks).
constexpr size_t kBuildGrain = 256;

// Distinct incident edge labels of u, the degree-refinement key halves.
void IncidentLabels(const Pattern& q, PatternNodeId u,
                    std::vector<Label>* out_labels,
                    std::vector<Label>* in_labels) {
  for (PatternEdgeId e : q.OutEdgeIds(u)) out_labels->push_back(q.edge(e).label);
  for (PatternEdgeId e : q.InEdgeIds(u)) in_labels->push_back(q.edge(e).label);
  std::sort(out_labels->begin(), out_labels->end());
  out_labels->erase(std::unique(out_labels->begin(), out_labels->end()),
                    out_labels->end());
  std::sort(in_labels->begin(), in_labels->end());
  in_labels->erase(std::unique(in_labels->begin(), in_labels->end()),
                   in_labels->end());
}

// Runs `fn(begin, end)` over [0, n) in about 4 chunks per runner of at
// least `min_grain` indices each (inline without a pool).
void ForRange(ThreadPool* pool, size_t n, size_t min_grain,
              const std::function<void(size_t, size_t)>& fn) {
  const size_t spread = 4 * (pool != nullptr ? pool->width() : 1);
  ThreadPool::ParallelForDynamic(
      pool, n, std::max(min_grain, (n + spread - 1) / spread), fn);
}

// The label/degree filter is a pure function of (node label, incident
// edge labels): group pattern nodes by that key so each distinct filter
// is computed (or fetched from the intern pool) exactly once.
struct KeyedNode {
  Label label;
  std::vector<Label> out_labels;
  std::vector<Label> in_labels;
  std::vector<PatternNodeId> nodes;  // nodes sharing this filter
};

std::vector<KeyedNode> DedupeFilterKeys(const Pattern& pattern) {
  std::vector<KeyedNode> keys;
  for (PatternNodeId u = 0; u < pattern.num_nodes(); ++u) {
    KeyedNode k;
    k.label = pattern.node(u).label;
    IncidentLabels(pattern, u, &k.out_labels, &k.in_labels);
    auto it = std::find_if(keys.begin(), keys.end(), [&](const KeyedNode& e) {
      return e.label == k.label && e.out_labels == k.out_labels &&
             e.in_labels == k.in_labels;
    });
    if (it == keys.end()) {
      k.nodes.push_back(u);
      keys.push_back(std::move(k));
    } else {
      it->nodes.push_back(u);
    }
  }
  return keys;
}

// The sequential stats reduction over the finished stratified sets —
// shared by Build and Repair so both report identical numbers (the sets
// themselves are identical by construction).
void AccumulateInitialStats(const Pattern& pattern, const Graph& g,
                            const std::vector<CandidateSetRef>& stratified,
                            MatchStats* stats) {
  if (stats == nullptr) return;
  for (PatternNodeId u = 0; u < pattern.num_nodes(); ++u) {
    stats->candidates_initial += g.NumVerticesWithLabel(pattern.node(u).label);
    stats->candidates_pruned +=
        g.NumVerticesWithLabel(pattern.node(u).label) -
        stratified[u]->members.size();
  }
}

// Good sets: prune by the quantifier upper bound U(v,e) against fixed
// Cπ. Existential edges impose nothing beyond Cπ membership, in which
// case the good set IS the stratified set (shared, not copied). The
// per-candidate bound checks read only the (frozen) stratified bitsets,
// so they fan out across the pool with a keep-flag per slot. A pure
// function of (pattern, options, graph, stratified sets) — which is what
// lets Repair reuse it verbatim.
std::vector<CandidateSetRef> BuildGoodSets(
    const Pattern& pattern, const Graph& g, const MatchOptions& options,
    const std::vector<CandidateSetRef>& stratified, MatchStats* stats,
    ThreadPool* pool) {
  const size_t nq = pattern.num_nodes();
  std::vector<CandidateSetRef> good_sets(nq);
  std::vector<char> keep;
  for (PatternNodeId u = 0; u < nq; ++u) {
    std::vector<PatternEdgeId> quantified;
    for (PatternEdgeId e : pattern.OutEdgeIds(u)) {
      if (!pattern.edge(e).quantifier.IsExistential()) quantified.push_back(e);
    }
    if (quantified.empty() || !options.use_quantifier_pruning) {
      good_sets[u] = stratified[u];
      continue;
    }
    const std::vector<VertexId>& members = stratified[u]->members;
    keep.assign(members.size(), 1);
    ForRange(pool, members.size(), kBuildGrain,
             [&](size_t begin, size_t end) {
               for (size_t i = begin; i < end; ++i) {
                 const VertexId v = members[i];
                 for (PatternEdgeId e : quantified) {
                   const PatternEdge& pe = pattern.edge(e);
                   uint64_t total = g.OutDegreeWithLabel(v, pe.label);
                   std::optional<uint64_t> needed =
                       pe.quantifier.MinCountNeeded(total);
                   if (!needed.has_value()) {
                     // Unsatisfiable at this vertex (e.g. =p% non-integer).
                     keep[i] = 0;
                     break;
                   }
                   // U(v,e): children via the edge label that are
                   // stratified candidates of the target node.
                   uint64_t ub = 0;
                   for (const Neighbor& n :
                        g.OutNeighborsWithLabel(v, pe.label)) {
                     if (stratified[pe.dst]->bits.Test(n.v)) ++ub;
                     // Counting can stop once the bound is provably met.
                     if (ub >= *needed) break;
                   }
                   if (ub < *needed) {
                     keep[i] = 0;
                     break;
                   }
                 }
               }
             });
    std::vector<VertexId> good;
    for (size_t i = 0; i < members.size(); ++i) {
      if (keep[i]) good.push_back(members[i]);
    }
    if (stats != nullptr) {
      stats->candidates_pruned += members.size() - good.size();
    }
    good_sets[u] = MakeCandidateSet(std::move(good), g.num_vertices());
  }
  return good_sets;
}

// True iff v passes the label/degree filter of `key` — the exact
// per-vertex predicate of ComputeLabelDegreeSet, exposed for the patch
// path of Repair.
// Appends a ⊕ b (both sorted) to *out; callers sort+unique afterwards.
void AppendSymmetricDifference(const std::vector<VertexId>& a,
                               const std::vector<VertexId>& b,
                               std::vector<VertexId>* out) {
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(*out));
}

void SortUniqueVertices(std::vector<VertexId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

bool PassesFilter(const Graph& g, const KeyedNode& key, VertexId v) {
  if (g.vertex_label(v) != key.label) return false;
  for (Label l : key.out_labels) {
    if (g.OutDegreeWithLabel(v, l) == 0) return false;
  }
  for (Label l : key.in_labels) {
    if (g.InDegreeWithLabel(v, l) == 0) return false;
  }
  return true;
}

// Cπ(u) for every pattern node: the dual-simulation fixpoint, seeded
// from the intern pool's label/degree sets when `cache` is given. A fired
// token surfaces as its status, never as partial sets.
Result<std::vector<CandidateSetRef>> SimulatedSets(
    const Pattern& pattern, const Graph& g, const MatchOptions& options,
    ThreadPool* pool, CandidateCache* cache) {
  const size_t nq = pattern.num_nodes();
  // The STARTING sets are interned: when an intern pool is available,
  // each node's label/degree filter is fetched (or computed once)
  // through it and seeds the fixpoint iteration. The greatest fixpoint
  // is contained in every seed, so the result is identical to the
  // unseeded label-scan start; warm queries just skip the per-label
  // scans and open with tighter first-round sets. Nodes sharing a filter
  // key fetch one entry.
  std::vector<CandidateSetRef> seeds;
  if (cache != nullptr) {
    const std::vector<KeyedNode> keys = DedupeFilterKeys(pattern);
    std::vector<CandidateSetRef> per_key(keys.size());
    ForRange(pool, keys.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        per_key[i] =
            cache->Get(keys[i].label, keys[i].out_labels, keys[i].in_labels);
      }
    });
    seeds.resize(nq);
    for (size_t i = 0; i < keys.size(); ++i) {
      for (PatternNodeId u : keys[i].nodes) seeds[u] = per_key[i];
    }
  }
  // The rounds themselves parallelize (see DualSimulation) and stay
  // bit-identical at any thread count.
  std::vector<std::vector<VertexId>> sim =
      DualSimulation(pattern, g, pool, cache != nullptr ? &seeds : nullptr,
                     options.cancel);
  // A fired token means the fixpoint broke early and `sim` holds
  // partial supersets — discard them before they can reach a caller.
  QGP_CHECK_CANCEL(options.cancel);
  // Bitset construction per node is independent work.
  std::vector<CandidateSetRef> sets(nq);
  ForRange(pool, nq, 1, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      sets[u] = MakeCandidateSet(std::move(sim[u]), g.num_vertices());
    }
  });
  return sets;
}

}  // namespace

Result<CandidateSpace> CandidateSpace::Build(const Pattern& pattern,
                                             const Graph& g,
                                             const MatchOptions& options,
                                             MatchStats* stats,
                                             ThreadPool* pool,
                                             CandidateCache* cache) {
  if (!pattern.IsPositive()) {
    return Status::InvalidArgument(
        "candidate space requires a positive pattern (apply Pi() first)");
  }
  QGP_CHECK_CANCEL(options.cancel);
  CandidateSpace cs;
  const size_t nq = pattern.num_nodes();
  cs.stratified_.resize(nq);

  if (options.use_simulation) {
    // The fixpoint reads only node labels and labelled edges, so every
    // quantifier variant of one topology shares it: with an intern pool,
    // a memoized result at this graph version replaces the whole
    // fixpoint, and a finished one is memoized for the next variant.
    if (cache == nullptr || !cache->FindSimulation(pattern, &cs.stratified_)) {
      QGP_ASSIGN_OR_RETURN(
          cs.stratified_, SimulatedSets(pattern, g, options, pool, cache));
      if (cache != nullptr) {
        cs.stratified_ =
            cache->AdmitSimulation(pattern, std::move(cs.stratified_));
      }
    }
  } else {
    // Label + existential degree refinement: dedupe the keys, compute
    // each distinct filter once — through the intern pool when one is
    // given, so other builds on this graph share the result — and alias
    // every node of the key to the same set.
    const std::vector<KeyedNode> keys = DedupeFilterKeys(pattern);
    std::vector<CandidateSetRef> per_key(keys.size());
    ForRange(pool, keys.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const KeyedNode& k = keys[i];
        per_key[i] = cache != nullptr
                         ? cache->Get(k.label, k.out_labels, k.in_labels)
                         : ComputeLabelDegreeSet(g, k.label, k.out_labels,
                                                 k.in_labels);
      }
    });
    for (size_t i = 0; i < keys.size(); ++i) {
      for (PatternNodeId u : keys[i].nodes) cs.stratified_[u] = per_key[i];
    }
  }

  QGP_CHECK_CANCEL(options.cancel);
  // Stats are a sequential reduction so their totals never depend on a
  // schedule.
  AccumulateInitialStats(pattern, g, cs.stratified_, stats);
  cs.good_ = BuildGoodSets(pattern, g, options, cs.stratified_, stats, pool);
  return cs;
}

Result<CandidateSpace> CandidateSpace::Repair(
    const CandidateSpace& previous, const Pattern& pattern, const Graph& g,
    const GraphDeltaSummary& delta, const MatchOptions& options,
    MatchStats* stats, ThreadPool* pool, CandidateCache* cache,
    CandidateRepairInfo* info) {
  if (!pattern.IsPositive()) {
    return Status::InvalidArgument(
        "candidate space requires a positive pattern (apply Pi() first)");
  }
  if (previous.num_pattern_nodes() != pattern.num_nodes()) {
    return Status::InvalidArgument(
        "repair requires the pattern the previous space was built for");
  }
  QGP_CHECK_CANCEL(options.cancel);
  const size_t nq = pattern.num_nodes();
  const size_t n = g.num_vertices();

  // Pattern-relevant labels, as bitsets for the touched/BFS filters.
  Label max_label = 0;
  for (PatternNodeId u = 0; u < nq; ++u) {
    max_label = std::max(max_label, pattern.node(u).label);
  }
  for (PatternEdgeId e = 0; e < pattern.num_edges(); ++e) {
    max_label = std::max(max_label, pattern.edge(e).label);
  }
  DynamicBitset node_labels(max_label + 1), edge_labels(max_label + 1);
  for (PatternNodeId u = 0; u < nq; ++u) {
    node_labels.Set(pattern.node(u).label);
  }
  for (PatternEdgeId e = 0; e < pattern.num_edges(); ++e) {
    edge_labels.Set(pattern.edge(e).label);
  }

  const std::vector<VertexId> touched =
      TouchedVertices(delta, &edge_labels, &node_labels,
                      /*additions_only=*/false);
  const std::vector<VertexId> gain_sites =
      TouchedVertices(delta, &edge_labels, &node_labels,
                      /*additions_only=*/true);

  // The vertex universe the previous sets' bitsets cover; when vertices
  // were appended, even an untouched set needs re-wrapping so membership
  // bitsets match the new |V|.
  const bool universe_grew =
      nq > 0 && previous.stratified_[0]->bits.size() != n;

  if (touched.empty() && !universe_grew) {
    // The delta is invisible to this pattern: every set is reusable.
    CandidateSpace cs;
    cs.stratified_ = previous.stratified_;
    cs.good_ = previous.good_;
    AccumulateInitialStats(pattern, g, cs.stratified_, stats);
    if (stats != nullptr && options.use_quantifier_pruning) {
      for (PatternNodeId u = 0; u < nq; ++u) {
        stats->candidates_pruned +=
            cs.stratified_[u]->members.size() - cs.good_[u]->members.size();
      }
    }
    return cs;
  }

  // Gain region: insertions can ripple candidacy gains, but only through
  // chains of pattern-relevant-labeled edges rooted at a gain site (see
  // header). Sweep those labels breadth-first; a region past the budget
  // means locality has been lost and a fresh Build is cheaper to reason
  // about (and usually to run).
  const size_t budget = std::max<size_t>(64, n / 4);
  DynamicBitset in_region(n);
  std::vector<VertexId> region;
  for (VertexId v : gain_sites) {
    if (v < n && in_region.TestAndSet(v)) region.push_back(v);
  }
  auto relevant = [&](Label l) {
    return l < edge_labels.size() && edge_labels.Test(l);
  };
  for (size_t head = 0; head < region.size(); ++head) {
    const VertexId v = region[head];
    for (const Neighbor& nbr : g.OutNeighbors(v)) {
      if (relevant(nbr.label) && in_region.TestAndSet(nbr.v)) {
        region.push_back(nbr.v);
      }
    }
    for (const Neighbor& nbr : g.InNeighbors(v)) {
      if (relevant(nbr.label) && in_region.TestAndSet(nbr.v)) {
        region.push_back(nbr.v);
      }
    }
    if (region.size() > budget) {
      if (info != nullptr) {
        info->fell_back = true;
        info->gain_region = region.size();
      }
      Result<CandidateSpace> rebuilt =
          Build(pattern, g, options, stats, pool, cache);
      if (rebuilt.ok() && info != nullptr) {
        for (PatternNodeId u = 0; u < nq; ++u) {
          AppendSymmetricDifference(previous.stratified_[u]->members,
                                    rebuilt->stratified_[u]->members,
                                    &info->changed);
        }
        SortUniqueVertices(&info->changed);
      }
      return rebuilt;
    }
  }
  if (info != nullptr) info->gain_region = region.size();
  std::sort(region.begin(), region.end());

  CandidateSpace cs;
  cs.stratified_.resize(nq);
  if (options.use_simulation) {
    // Seed the fixpoint from (still-label-valid old members) ∪ (label-
    // matching gain region): a superset of the new greatest fixpoint, so
    // the seeded rounds converge to exactly the fresh-Build sets.
    std::vector<CandidateSetRef> seeds(nq);
    ForRange(pool, nq, 1, [&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        const Label lu = pattern.node(u).label;
        std::vector<VertexId> seed;
        seed.reserve(previous.stratified_[u]->members.size());
        for (VertexId v : previous.stratified_[u]->members) {
          if (g.vertex_label(v) == lu) seed.push_back(v);
        }
        for (VertexId v : region) {
          if (g.vertex_label(v) == lu) seed.push_back(v);
        }
        SortUniqueVertices(&seed);
        seeds[u] = MakeCandidateSet(std::move(seed), n);
      }
    });
    std::vector<std::vector<VertexId>> sim =
        DualSimulation(pattern, g, pool, &seeds, options.cancel);
    QGP_CHECK_CANCEL(options.cancel);  // early-broken sim is partial
    ForRange(pool, nq, 1, [&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        cs.stratified_[u] = MakeCandidateSet(std::move(sim[u]), n);
      }
    });
  } else {
    // Label/degree filters are per-vertex local: keep untouched old
    // members, recheck touched ones, and admit touched vertices that now
    // pass. (The gain region is irrelevant here — no fixpoint cascades.)
    DynamicBitset touched_bits(n);
    for (VertexId v : touched) {
      if (v < n) touched_bits.Set(v);
    }
    const std::vector<KeyedNode> keys = DedupeFilterKeys(pattern);
    std::vector<CandidateSetRef> per_key(keys.size());
    ForRange(pool, keys.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const KeyedNode& key = keys[i];
        const CandidateSetRef& old = previous.stratified_[key.nodes[0]];
        std::vector<VertexId> kept, admitted;
        kept.reserve(old->members.size());
        for (VertexId v : old->members) {
          if (!touched_bits.Test(v) || PassesFilter(g, key, v)) {
            kept.push_back(v);
          }
        }
        for (VertexId v : touched) {
          if (v < n && !old->bits.Test(v) && PassesFilter(g, key, v)) {
            admitted.push_back(v);
          }
        }
        std::vector<VertexId> members;
        members.reserve(kept.size() + admitted.size());
        std::merge(kept.begin(), kept.end(), admitted.begin(), admitted.end(),
                   std::back_inserter(members));
        per_key[i] = MakeCandidateSet(std::move(members), n);
      }
    });
    for (size_t i = 0; i < keys.size(); ++i) {
      for (PatternNodeId u : keys[i].nodes) cs.stratified_[u] = per_key[i];
    }
  }

  QGP_CHECK_CANCEL(options.cancel);
  AccumulateInitialStats(pattern, g, cs.stratified_, stats);
  cs.good_ = BuildGoodSets(pattern, g, options, cs.stratified_, stats, pool);

  if (info != nullptr) {
    for (PatternNodeId u = 0; u < nq; ++u) {
      AppendSymmetricDifference(previous.stratified_[u]->members,
                                cs.stratified_[u]->members, &info->changed);
    }
    SortUniqueVertices(&info->changed);
  }
  return cs;
}

BitsetView CandidateSpace::StratifiedView(
    PatternNodeId u, std::span<const VertexId> sorted_ball,
    std::span<const uint64_t> ball_words) const {
  const CandidateSet& set = *stratified_[u];
  if (ball_words.empty()) {
    return BitsetView{set.bits.words(), {}, set.members, set.members.size()};
  }
  return MaskedView(set.bits.words(), set.members, ball_words, sorted_ball);
}

}  // namespace qgp
