#include "core/dmatch.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/thread_pool.h"
#include "core/generic_matcher.h"
#include "graph/graph_algorithms.h"

namespace qgp {

namespace {

inline uint64_t PairKey(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Per-thread scratch arena for the per-focus verification loop. QMatch's
// parallel map verifies thousands of focus candidates per pool thread;
// everything |V|-sized or heap-backed that a verification needs lives
// here and is recycled, so steady-state verification allocates nothing
// proportional to the graph.
struct DMatchScratch {
  MultiBallScratch batch;               // shared BFS of a VerifyBatch
  std::vector<VertexId> batch_ball;     // one member's decoded ball
  std::vector<BitsetView> local;        // Lπ(u) per pattern node
  std::vector<BitsetView> answer;       // good(u) ∩ Lπ(u) per pattern node
  std::vector<std::unordered_set<uint64_t>> witnessed;       // per edge
  std::vector<std::unordered_set<uint64_t>> failed;          // per edge
  std::vector<std::unordered_map<VertexId, int8_t>> good_memo;  // per edge
  GenericMatcher::Scratch answer_search;
  GenericMatcher::Scratch witness_search;
};

DMatchScratch& ThreadScratch() {
  static thread_local DMatchScratch scratch;
  return scratch;
}

// Clears the first n containers, keeping their allocations (buckets,
// capacity) for the next focus candidate.
template <typename C>
void ResizeAndClear(std::vector<C>& v, size_t n) {
  if (v.size() < n) v.resize(n);
  for (size_t i = 0; i < n; ++i) v[i].clear();
}

// Per-focus verification state: local candidate views, witness memos and
// quantifier goodness, evaluated lazily during the answer search. Buffers
// are borrowed from the thread's DMatchScratch.
class FocusVerifier {
 public:
  FocusVerifier(const Pattern& pattern, const Pattern& stratified,
                const Graph& g, const CandidateSpace& cs,
                const MatchOptions& options,
                const std::vector<PatternEdgeId>& edge_to_original,
                size_t num_original_edges,
                const std::vector<std::vector<PatternEdgeId>>& quantified_out,
                const std::vector<char>& scored_nodes,
                const std::vector<int>& hop, MatchStats* stats,
                DMatchScratch& scratch)
      : q_(pattern),
        strat_(stratified),
        g_(g),
        cs_(cs),
        options_(options),
        edge_to_original_(edge_to_original),
        num_original_edges_(num_original_edges),
        quantified_out_(quantified_out),
        scored_nodes_(scored_nodes),
        hop_(hop),
        stats_(stats),
        s_(scratch) {}

  // Verifies vx against member b of the batch's ball BFS: `ball` is the
  // member's ball, sorted; its words and level words are read from
  // `balls`. Both are ignored when the hub guard left the ball
  // incomplete (the search then runs on global candidate sets).
  bool VerifyInBall(VertexId vx, std::span<const VertexId> ball,
                    const MultiBallScratch& balls, size_t b, bool complete,
                    const FocusCache* warm, FocusCache* cache_out) {
    vx_ = vx;
    // (1) Seed memos (before any early return: Finish reads them).
    ResizeAndClear(s_.witnessed, q_.num_edges());
    ResizeAndClear(s_.failed, q_.num_edges());
    if (warm != nullptr && !warm->failed_by_original_edge.empty()) {
      for (PatternEdgeId e = 0; e < q_.num_edges(); ++e) {
        PatternEdgeId orig = edge_to_original_[e];
        if (orig < warm->failed_by_original_edge.size()) {
          s_.failed[e] = warm->failed_by_original_edge[orig];
        }
      }
    }
    ResizeAndClear(s_.good_memo, q_.num_edges());
    // (2) Local stratified candidate sets Lπ(u) = Cπ(u) ∩ ball_k(vx),
    // k = hop_[u]: an embedding pinned at vx maps u within k hops of vx
    // (§5.1), over the edges the ball filter lets each hop walk (see
    // StepEdgeFilter). Each is a view over Cπ(u)'s bitset masked by the
    // words of the k-hop ball (unmasked when the ball is incomplete);
    // nothing is decoded. The view's size, the weight the search's plan
    // order compares, is counted over the full ball for every node:
    // counted by level, the nodes next to the focus always look smallest,
    // and the greedy order puts off the nodes that close cycles (one
    // cyclic pattern ran 6.4M search extensions instead of 9K that way).
    // The focus view stays Cπ(xo) ∩ ball; every search pins the focus to
    // vx.
    //
    // The answer search reads its own views: good(u) ∩ the same mask,
    // through good(u)'s words. A vertex outside good(u) fails IsGood at
    // every focus (its witnessed count is at most its upper bound, which
    // good(u) already found short), so the search need not try it. Each
    // keeps Lπ(u)'s size, so both searches plan alike. Witness searches,
    // InLocal and child counting read Lπ(u): a witness is an embedding
    // of Qπ, with no goodness condition on its nodes.
    s_.local.resize(q_.num_nodes());
    s_.answer.resize(q_.num_nodes());
    for (PatternNodeId u = 0; u < q_.num_nodes(); ++u) {
      BitsetView& local = s_.local[u];
      local = cs_.StratifiedView(
          u, ball, complete ? balls.BallWords(b) : std::span<const uint64_t>());
      if (local.size == 0) return Finish(false, cache_out);
      if (complete && hop_[u] > 0) local.mask = balls.LevelWords(b, hop_[u]);
      const CandidateSet& good = *cs_.good_set(u);
      BitsetView& answer = s_.answer[u];
      answer = local;
      answer.words = good.bits.words();
      if (good.members.size() < answer.sorted.size()) {
        answer.sorted = good.members;
      }
    }

    // (3) Answer search: an embedding of Qπ pinned at vx whose every node
    // is quantifier-good. Witness searches run NESTED inside this
    // search's accept callback, so they need their own matcher (and
    // scratch); witness searches themselves never nest.
    answer_matcher_.emplace(strat_, g_, s_.answer, &s_.answer_search);
    witness_matcher_.emplace(strat_, g_, s_.local, &s_.witness_search);
    std::pair<PatternNodeId, VertexId> pin{q_.focus(), vx};
    GenericMatcher::Accept accept = [this](PatternNodeId u, VertexId v) {
      return IsGood(u, v);
    };
    GenericMatcher::Score score = [this](PatternNodeId u, VertexId v) {
      return Potential(u, v);
    };
    GenericMatcher::SearchOptions sopts;
    sopts.pins = {&pin, 1};
    sopts.accept = &accept;
    if (options_.use_potential_ordering) {
      sopts.score = &score;
      sopts.scored_nodes = scored_nodes_;
    }
    sopts.stats = stats_;
    return Finish(answer_matcher_->FindAny(sopts), cache_out);
  }

 private:
  bool Finish(bool found, FocusCache* cache_out) {
    if (cache_out != nullptr) {
      cache_out->failed_by_original_edge.assign(num_original_edges_, {});
      for (PatternEdgeId e = 0; e < q_.num_edges(); ++e) {
        PatternEdgeId orig = edge_to_original_[e];
        if (orig < num_original_edges_) {
          auto& dst = cache_out->failed_by_original_edge[orig];
          for (uint64_t k : s_.failed[e]) dst.insert(k);
        }
      }
    }
    return found;
  }

  // v ∈ Lπ(u) in O(1): Lπ(u) is Cπ(u) ∩ ball (Cπ(u) alone when the ball
  // is incomplete), except at the focus, which is pinned to vx.
  bool InLocal(PatternNodeId u, VertexId v) const {
    if (u == q_.focus()) return v == vx_;
    return s_.local[u].Test(v);
  }

  // Is there an embedding of Qπ with h(xo)=vx, h(u)=v, h(u')=v'? Complete
  // within the ball because any embedding pinned at vx stays inside it.
  // A found embedding witnesses a pair for EVERY edge, which the memo
  // exploits across checks.
  bool WitnessPair(PatternEdgeId e, VertexId v, VertexId v2) {
    const uint64_t key = PairKey(v, v2);
    if (s_.witnessed[e].count(key) != 0) return true;
    if (s_.failed[e].count(key) != 0) return false;
    if (stats_ != nullptr) ++stats_->witness_searches;
    const PatternEdge& pe = q_.edge(e);
    std::pair<PatternNodeId, VertexId> pins[3] = {
        {q_.focus(), vx_}, {pe.src, v}, {pe.dst, v2}};
    GenericMatcher::SearchOptions sopts;
    sopts.pins = pins;
    sopts.stats = stats_;
    if (witness_matcher_->FindAny(sopts, &witness_buf_)) {
      for (PatternEdgeId e2 = 0; e2 < q_.num_edges(); ++e2) {
        const PatternEdge& pe2 = q_.edge(e2);
        s_.witnessed[e2].insert(
            PairKey(witness_buf_[pe2.src], witness_buf_[pe2.dst]));
      }
      return true;
    }
    s_.failed[e].insert(key);
    return false;
  }

  // Does v satisfy the counting quantifier of edge e = (u, u') given the
  // focus pin? Counts distinct witnessed children (the §2.2 Me set). With
  // early_stop_counting the count stops once the verdict is settled in
  // either direction: a monotone threshold is met, an exact one is
  // overshot, or the upper bound `ub` (children in Lπ(u') not yet proven
  // witness-free) drops below the minimum Eval accepts. The cuts are
  // exact: the final count never exceeds `ub`, and Eval holds only at
  // counts >= MinCountNeeded (only at it, for `=` forms), so `needed` is
  // also the count at which a `>=` form stops (EarlyStopCount).
  bool CountSatisfies(PatternEdgeId e, VertexId v) {
    const PatternEdge& pe = q_.edge(e);
    const Quantifier& f = pe.quantifier;
    const std::span<const Neighbor> children =
        g_.OutNeighborsWithLabel(v, pe.label);
    const uint64_t total = children.size();
    std::optional<uint64_t> needed = f.MinCountNeeded(total);
    if (!needed.has_value()) return false;  // unsatisfiable at v
    const bool cut = options_.early_stop_counting;
    const bool is_eq = f.op() == QuantOp::kEq;
    uint64_t ub = 0;
    if (cut) {
      ub = LocalChildren(pe, children);
      if (ub < *needed) return false;
    }
    uint64_t count = 0;
    for (const Neighbor& n : children) {
      if (!InLocal(pe.dst, n.v)) continue;
      if (WitnessPair(e, v, n.v)) {
        ++count;
        if (cut && !is_eq && count >= *needed) return true;
        if (cut && is_eq && count > *needed) return false;
      } else if (cut && --ub < *needed) {
        return false;
      }
    }
    return f.Eval(count, total);
  }

  // Children of v via e's label (`children`, v's label slice) that lie
  // in Lπ(u'): the upper bound on v's witnessed count before any search
  // (U(v, e) of Appendix B).
  uint64_t LocalChildren(const PatternEdge& pe,
                         std::span<const Neighbor> children) const {
    uint64_t n = 0;
    for (const Neighbor& c : children) {
      if (InLocal(pe.dst, c.v)) ++n;
    }
    return n;
  }

  // Quantifier goodness of (u, v), memoized per edge.
  bool IsGood(PatternNodeId u, VertexId v) {
    for (PatternEdgeId e : quantified_out_[u]) {
      auto [it, inserted] = s_.good_memo[e].try_emplace(v, 0);
      if (inserted) it->second = CountSatisfies(e, v) ? 1 : -1;
      if (it->second < 0) return false;
    }
    return true;
  }

  // Appendix-B potential: candidates whose quantifier upper bounds sit
  // well above their thresholds are tried first. Not memoized: the search
  // scores each frontier vertex once and few (u, v) pairs recur within a
  // focus, so a memo would cost more in hashing and allocation than the
  // recomputation it saves. Identically 0 at nodes with no quantified
  // out-edge, which the search therefore leaves unscored.
  double Potential(PatternNodeId u, VertexId v) const {
    double score = 0.0;
    for (PatternEdgeId e : quantified_out_[u]) {
      const PatternEdge& pe = q_.edge(e);
      const std::span<const Neighbor> children =
          g_.OutNeighborsWithLabel(v, pe.label);
      std::optional<uint64_t> needed =
          pe.quantifier.MinCountNeeded(children.size());
      if (!needed.has_value() || *needed == 0) continue;
      score += static_cast<double>(LocalChildren(pe, children)) /
               static_cast<double>(*needed);
    }
    return score;
  }

  const Pattern& q_;
  const Pattern& strat_;
  const Graph& g_;
  const CandidateSpace& cs_;
  const MatchOptions& options_;
  const std::vector<PatternEdgeId>& edge_to_original_;
  const size_t num_original_edges_;
  const std::vector<std::vector<PatternEdgeId>>& quantified_out_;
  const std::vector<char>& scored_nodes_;
  const std::vector<int>& hop_;
  MatchStats* stats_;
  DMatchScratch& s_;

  VertexId vx_ = kInvalidVertex;
  std::optional<GenericMatcher> answer_matcher_;
  std::optional<GenericMatcher> witness_matcher_;
  std::vector<VertexId> witness_buf_;  // pinned-pair search result
};

// The ball filter of a pattern whose nodes lie hop[u] undirected hops
// from the focus. Only step edges count: pattern edges whose endpoints
// lie at distances j and j + 1. Call the nearer endpoint n. At every hop
// i <= j, the edge's label is allowed out of a vertex if n is the edge's
// source and into it otherwise, and label(n) may expand. An embedding
// reaches a node at distance k along a shortest pattern path, whose
// step i leaves a node at distance exactly i; a vertex first reached at
// an earlier level j expands with the larger sets of hop j. So every
// embedding image of a node at distance k is within k hops of the focus
// in the filtered ball. An edge between two nodes at the same distance
// lies on no shortest path and allows nothing.
BallFilter StepEdgeFilter(const Pattern& q, const std::vector<int>& hop,
                          int radius, size_t num_labels) {
  BallFilter filter;
  filter.out.assign(radius, DynamicBitset(num_labels));
  filter.in.assign(radius, DynamicBitset(num_labels));
  filter.node.assign(radius, DynamicBitset(num_labels));
  auto allow = [](DynamicBitset& set, Label l) {
    if (l < set.size()) set.Set(l);
  };
  for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& edge = q.edge(e);
    const int src = hop[edge.src];
    const int dst = hop[edge.dst];
    if (src != dst + 1 && dst != src + 1) continue;
    const bool from_src = src < dst;
    const PatternNodeId near = from_src ? edge.src : edge.dst;
    for (int i = 0; i <= std::min(src, dst); ++i) {
      allow(from_src ? filter.out[i] : filter.in[i], edge.label);
      allow(filter.node[i], q.node(near).label);
    }
  }
  return filter;
}

}  // namespace

Result<PositiveEvaluator> PositiveEvaluator::Create(
    Pattern positive, const Graph& g, MatchOptions options,
    const std::vector<PatternEdgeId>* edge_to_original,
    size_t num_original_edges, ThreadPool* pool, CandidateCache* cache,
    const SpaceRepairHint* repair, MatchStats* stats) {
  if (!positive.IsPositive()) {
    return Status::InvalidArgument(
        "PositiveEvaluator requires a positive pattern");
  }
  QGP_RETURN_IF_ERROR(positive.Validate(options.max_quantified_per_path));
  PositiveEvaluator ev;
  ev.pattern_ = std::move(positive);
  ev.stratified_ = ev.pattern_.Stratified();
  ev.g_ = &g;
  ev.options_ = options;
  ev.hop_ = ev.pattern_.FocusDistances();
  for (int d : ev.hop_) ev.radius_ = std::max(ev.radius_, d);
  if (edge_to_original != nullptr) {
    ev.edge_to_original_ = *edge_to_original;
  } else {
    ev.edge_to_original_.resize(ev.pattern_.num_edges());
    for (PatternEdgeId e = 0; e < ev.pattern_.num_edges(); ++e) {
      ev.edge_to_original_[e] = e;
    }
  }
  ev.num_original_edges_ =
      num_original_edges == 0 ? ev.pattern_.num_edges() : num_original_edges;
  ev.quantified_out_.resize(ev.pattern_.num_nodes());
  ev.scored_nodes_.assign(ev.pattern_.num_nodes(), 0);
  for (PatternNodeId u = 0; u < ev.pattern_.num_nodes(); ++u) {
    for (PatternEdgeId e : ev.pattern_.OutEdgeIds(u)) {
      if (!ev.pattern_.edge(e).quantifier.IsExistential()) {
        ev.quantified_out_[u].push_back(e);
      }
    }
    ev.scored_nodes_[u] = ev.quantified_out_[u].empty() ? 0 : 1;
  }
  ev.ball_filter_ =
      StepEdgeFilter(ev.pattern_, ev.hop_, ev.radius_, g.dict().size());
  ev.ball_limit_ = options.ball_limit != 0
                       ? options.ball_limit
                       : std::max<size_t>(4096, g.num_vertices() / 8);
  if (repair != nullptr && repair->previous != nullptr &&
      repair->delta != nullptr) {
    QGP_ASSIGN_OR_RETURN(
        ev.cs_,
        CandidateSpace::Repair(*repair->previous, ev.pattern_, g,
                               *repair->delta, options, stats, pool, cache,
                               repair->info));
  } else {
    QGP_ASSIGN_OR_RETURN(
        ev.cs_,
        CandidateSpace::Build(ev.pattern_, g, options, stats, pool, cache));
  }
  return ev;
}

bool PositiveEvaluator::VerifyFocus(VertexId vx, const FocusCaches* warm,
                                    FocusCache* cache_out,
                                    MatchStats* stats) const {
  char is_match = 0;
  VerifyBatch({&vx, 1}, warm, {&is_match, 1},
              cache_out != nullptr ? std::span<FocusCache>(cache_out, 1)
                                   : std::span<FocusCache>(),
              stats);
  return is_match != 0;
}

size_t PositiveEvaluator::VerifyBatch(std::span<const VertexId> foci,
                                      const FocusCaches* warm,
                                      std::span<char> is_match,
                                      std::span<FocusCache> caches_out,
                                      MatchStats* stats,
                                      const CancelToken* cancel,
                                      size_t poll_base) const {
  assert(foci.size() <= kBatchWidth && is_match.size() >= foci.size());
  DMatchScratch& scratch = ThreadScratch();
  const PatternNodeId focus = pattern_.focus();
  size_t member = 0;  // BFS source index of the next good focus
  bool extracted = false;
  for (size_t i = 0; i < foci.size(); ++i) {
    is_match[i] = 0;
    if (cancel != nullptr && ((poll_base + i) & 15) == 0 &&
        cancel->ShouldStop()) {
      return i;
    }
    const VertexId vx = foci[i];
    if (!cs_.InGood(focus, vx)) continue;
    if (!extracted) {
      // One BFS for every good focus of the batch, run lazily so a token
      // that fires before the first good focus costs no traversal.
      VertexId sources[kMaxBallSources];
      size_t k = 0;
      for (size_t j = i; j < foci.size(); ++j) {
        if (cs_.InGood(focus, foci[j])) sources[k++] = foci[j];
      }
      KHopBallsFiltered(*g_, {sources, k}, radius_, ball_filter_, ball_limit_,
                        &scratch.batch, /*keep_levels=*/true);
      extracted = true;
    }
    const size_t b = member++;
    const bool complete = ((scratch.batch.complete >> b) & 1ULL) != 0;
    scratch.batch_ball.clear();
    if (complete) scratch.batch.AppendBallSorted(b, scratch.batch_ball);
    if (stats != nullptr) {
      ++stats->focus_candidates_checked;
      ++stats->balls_built;
    }
    const FocusCache* warm_cache = nullptr;
    if (warm != nullptr) {
      auto it = warm->find(vx);
      if (it != warm->end()) warm_cache = &it->second;
    }
    FocusVerifier verifier(pattern_, stratified_, *g_, cs_, options_,
                           edge_to_original_, num_original_edges_,
                           quantified_out_, scored_nodes_, hop_, stats,
                           scratch);
    is_match[i] = verifier.VerifyInBall(
        vx, scratch.batch_ball, scratch.batch, b, complete, warm_cache,
        caches_out.empty() ? nullptr : &caches_out[i]);
  }
  return foci.size();
}

AnswerSet PositiveEvaluator::EvaluateSubset(std::span<const VertexId> foci,
                                            const FocusCaches* warm,
                                            FocusCaches* caches,
                                            MatchStats* stats,
                                            ThreadPool* pool) const {
  // Verification is per-focus independent (the evaluator is const), so
  // foci are verified across the pool as stealable chunks and merged
  // deterministically: each chunk writes only its foci's slots, and the
  // merge folds slots in input order. Without a pool, or on a 1-wide
  // one, the same chunk body runs inline over every focus.
  //
  // Cancellation: VerifyBatch polls options_.cancel every 16th position,
  // so a fired token does not wait out a batch; the foci left report
  // "no match" and the caller unwinds with the token's status.
  const size_t n = foci.size();
  // Largest-ball-first schedule: order positions by undirected degree,
  // the proxy for the size of the radius-hop ball, descending, ties by
  // input position so the order is a pure function of the input. A hub
  // focus starts at once instead of surfacing at the tail of a chunk.
  std::vector<uint64_t> cost(n);
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    cost[i] = static_cast<uint64_t>(g_->OutDegree(foci[i])) +
              g_->InDegree(foci[i]);
    order[i] = static_cast<uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return a < b;
  });
  size_t grain = options_.scheduler_grain;
  if (grain == 0) {
    const size_t width = pool != nullptr ? pool->width() : 1;
    grain = std::max<size_t>(1, n / (width * 8));
  }
  std::vector<char> is_match(n, 0);
  std::vector<FocusCache> cache_vec(caches != nullptr ? n : 0);
  // Counters per position: a batch's counters land on its first position.
  std::vector<MatchStats> stats_vec(stats != nullptr ? n : 0);
  auto verify_range = [&](size_t begin, size_t end) {
    VertexId batch[kBatchWidth];
    char verdicts[kBatchWidth];
    std::vector<FocusCache> batch_caches(caches != nullptr ? kBatchWidth : 0);
    for (size_t first = begin; first < end; first += kBatchWidth) {
      const size_t m = std::min(kBatchWidth, end - first);
      for (size_t j = 0; j < m; ++j) batch[j] = foci[order[first + j]];
      const size_t done = VerifyBatch(
          {batch, m}, warm, {verdicts, m},
          std::span<FocusCache>(batch_caches).first(caches != nullptr ? m : 0),
          stats != nullptr ? &stats_vec[first] : nullptr, options_.cancel,
          first);
      for (size_t j = 0; j < done; ++j) {
        const size_t i = order[first + j];
        is_match[i] = verdicts[j];
        if (verdicts[j] && caches != nullptr) {
          cache_vec[i] = std::move(batch_caches[j]);
        }
      }
      if (done < m) return;  // cancelled
    }
  };
  const ThreadPool::FanOut fan_out =
      ThreadPool::ParallelForDynamic(pool, n, grain, verify_range);
  AnswerSet answers;
  for (size_t i = 0; i < n; ++i) {
    if (stats != nullptr) stats->Add(stats_vec[i]);
    if (is_match[i]) {
      answers.push_back(foci[i]);
      if (caches != nullptr) caches->emplace(foci[i], std::move(cache_vec[i]));
    }
  }
  if (stats != nullptr) {
    stats->scheduler_tasks += fan_out.chunks;
    stats->scheduler_steals += fan_out.stolen;
  }
  Canonicalize(answers);
  return answers;
}

}  // namespace qgp
