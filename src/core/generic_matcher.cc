#include "core/generic_matcher.h"

#include <algorithm>

namespace qgp {

GenericMatcher::GenericMatcher(const Pattern& pattern, const Graph& g,
                               std::span<const BitsetView> candidates,
                               Scratch* scratch)
    : q_(pattern),
      g_(g),
      candidates_(candidates),
      scratch_(scratch != nullptr ? scratch : &own_scratch_) {}

std::vector<GenericMatcher::Step> GenericMatcher::PlanOrder(
    std::span<const std::pair<PatternNodeId, VertexId>> pins) const {
  const size_t nq = q_.num_nodes();
  std::vector<char> placed(nq, 0);
  std::vector<Step> plan;
  plan.reserve(nq);
  for (const auto& [u, v] : pins) {
    (void)v;
    if (!placed[u]) {
      plan.push_back(Step{u, kInvalidPatternId, false});
      placed[u] = 1;
    }
  }
  // Greedy: repeatedly take the unplaced node adjacent to a placed one
  // with the smallest candidate set (SelectNext); fall back to the
  // globally smallest when the pattern part is disconnected.
  while (plan.size() < nq) {
    PatternNodeId best = kInvalidPatternId;
    PatternEdgeId best_edge = kInvalidPatternId;
    bool best_out = false;
    size_t best_size = SIZE_MAX;
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (placed[u]) continue;
      // Is u adjacent to a placed node?
      PatternEdgeId anchor = kInvalidPatternId;
      bool anchor_out = false;
      for (PatternEdgeId e : q_.InEdgeIds(u)) {
        if (placed[q_.edge(e).src]) {
          anchor = e;
          anchor_out = true;  // assigned --e--> u
          break;
        }
      }
      if (anchor == kInvalidPatternId) {
        for (PatternEdgeId e : q_.OutEdgeIds(u)) {
          if (placed[q_.edge(e).dst]) {
            anchor = e;
            anchor_out = false;  // u --e--> assigned
            break;
          }
        }
      }
      size_t size = candidates_[u].size;
      bool better;
      if (best == kInvalidPatternId) {
        better = true;
      } else if ((anchor != kInvalidPatternId) !=
                 (best_edge != kInvalidPatternId)) {
        better = anchor != kInvalidPatternId;  // connectivity first
      } else {
        better = size < best_size;
      }
      if (better) {
        best = u;
        best_edge = anchor;
        best_out = anchor_out;
        best_size = size;
      }
    }
    plan.push_back(Step{best, best_edge, best_out});
    placed[best] = 1;
  }
  return plan;
}

bool GenericMatcher::Consistent(PatternNodeId u, VertexId v) const {
  for (PatternEdgeId e : q_.OutEdgeIds(u)) {
    // Self-loops: the endpoint IS u, whose assignment is being decided.
    if (q_.edge(e).dst == u) {
      if (!g_.HasEdge(v, v, q_.edge(e).label)) return false;
      continue;
    }
    VertexId w = assignment_[q_.edge(e).dst];
    if (w != kInvalidVertex && !g_.HasEdge(v, w, q_.edge(e).label)) {
      return false;
    }
  }
  for (PatternEdgeId e : q_.InEdgeIds(u)) {
    if (q_.edge(e).src == u) continue;  // handled above
    VertexId w = assignment_[q_.edge(e).src];
    if (w != kInvalidVertex && !g_.HasEdge(w, v, q_.edge(e).label)) {
      return false;
    }
  }
  return true;
}

void GenericMatcher::PlanChecks() {
  placed_at_.assign(q_.num_nodes(), 0);
  for (size_t d = 0; d < plan_.size(); ++d) placed_at_[plan_[d].u] = d + 1;
  checks_.clear();
  check_begin_.clear();
  for (size_t d = 0; d < plan_.size(); ++d) {
    const Step& step = plan_[d];
    check_begin_.push_back(checks_.size());
    for (PatternEdgeId e : q_.OutEdgeIds(step.u)) {
      const PatternEdge& pe = q_.edge(e);
      if (e != step.anchor_edge &&
          (pe.dst == step.u || placed_at_[pe.dst] <= d)) {
        checks_.push_back(e);
      }
    }
    for (PatternEdgeId e : q_.InEdgeIds(step.u)) {
      const PatternEdge& pe = q_.edge(e);
      // Self-loops were taken with the out-edges.
      if (e != step.anchor_edge && pe.src != step.u &&
          placed_at_[pe.src] <= d) {
        checks_.push_back(e);
      }
    }
  }
  check_begin_.push_back(checks_.size());
}

bool GenericMatcher::Extend(size_t depth, const SearchOptions& options,
                            const Callback& cb) {
  if (stopped_) return false;
  if (depth == plan_.size()) {
    ++found_;
    if (options.stats != nullptr) ++options.stats->isomorphisms_enumerated;
    if (!cb(assignment_)) stopped_ = true;
    if (options.max_isomorphisms != 0 && found_ >= options.max_isomorphisms) {
      stopped_ = true;
      overflow_ = true;
    }
    return !stopped_;
  }
  const Step& step = plan_[depth];
  const PatternNodeId u = step.u;
  const BitsetView& cand = candidates_[u];
  const std::span<const PatternEdgeId> checks(
      checks_.data() + check_begin_[depth],
      checks_.data() + check_begin_[depth + 1]);

  auto try_vertex = [&](VertexId v) {
    if (scratch_->used.Test(v)) return;
    if (options.stats != nullptr) ++options.stats->search_extensions;
    for (PatternEdgeId e : checks) {
      const PatternEdge& pe = q_.edge(e);
      if (!g_.HasEdge(pe.src == u ? v : assignment_[pe.src],
                      pe.dst == u ? v : assignment_[pe.dst], pe.label)) {
        return;
      }
    }
    if (options.accept != nullptr && !(*options.accept)(u, v)) return;
    assignment_[u] = v;
    scratch_->used.Set(v);
    Extend(depth + 1, options, cb);
    scratch_->used.Clear(v);
    assignment_[u] = kInvalidVertex;
  };

  // Collect this step's candidate vertices: via the anchor adjacency when
  // available (IsExtend over Me(v)), else the whole candidate set. The
  // label slice is sorted by endpoint and duplicate-free, so keeping the
  // entries that pass the view's bit test lists the intersection in
  // ascending order, at one bit test per slice entry.
  std::vector<VertexId>& frontier = scratch_->frontier_bufs[depth];
  frontier.clear();
  if (step.anchor_edge != kInvalidPatternId) {
    const PatternEdge& ae = q_.edge(step.anchor_edge);
    VertexId anchor_v =
        step.anchor_outgoing ? assignment_[ae.src] : assignment_[ae.dst];
    std::span<const Neighbor> adj =
        step.anchor_outgoing ? g_.OutNeighborsWithLabel(anchor_v, ae.label)
                             : g_.InNeighborsWithLabel(anchor_v, ae.label);
    for (const Neighbor& n : adj) {
      if (cand.Test(n.v)) frontier.push_back(n.v);
    }
  } else {
    cand.Decode(frontier);
  }

  if (options.score != nullptr && frontier.size() > 1 &&
      (options.scored_nodes.empty() || options.scored_nodes[u] != 0)) {
    // Score each vertex once, then order by score, highest first, and
    // ties by ascending vertex. The frontier is ascending, so that is the
    // order a stable sort by score alone gives, without its buffer.
    std::vector<std::pair<double, VertexId>>& scored = scratch_->scored;
    scored.clear();
    for (VertexId v : frontier) scored.emplace_back((*options.score)(u, v), v);
    std::sort(scored.begin(), scored.end(),
              [](const std::pair<double, VertexId>& a,
                 const std::pair<double, VertexId>& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (size_t i = 0; i < scored.size(); ++i) frontier[i] = scored[i].second;
  }
  for (VertexId v : frontier) {
    try_vertex(v);
    if (stopped_) break;
  }
  return !stopped_;
}

bool GenericMatcher::Enumerate(const SearchOptions& options,
                               const Callback& cb) {
  const size_t nq = q_.num_nodes();
  assignment_.assign(nq, kInvalidVertex);
  scratch_->used.EnsureUniverse(g_.num_vertices());
  scratch_->used.ResetTouched();
  if (scratch_->frontier_bufs.size() < nq) scratch_->frontier_bufs.resize(nq);
  found_ = 0;
  stopped_ = false;
  overflow_ = false;

  // Validate and apply pins.
  for (const auto& [u, v] : options.pins) {
    if (u >= nq || v >= g_.num_vertices()) return true;  // vacuous
    if (!candidates_[u].Test(v)) {
      return true;  // pin outside candidates: no embeddings
    }
    if (assignment_[u] != kInvalidVertex && assignment_[u] != v) return true;
    if (assignment_[u] == kInvalidVertex && scratch_->used.Test(v)) return true;
    assignment_[u] = v;
    scratch_->used.Set(v);
  }
  // Mutual consistency of pins (edges among pinned nodes).
  for (const auto& [u, v] : options.pins) {
    if (!Consistent(u, v)) return true;
    if (options.accept != nullptr && !(*options.accept)(u, v)) return true;
  }

  plan_ = PlanOrder(options.pins);
  // Skip the pinned prefix during extension.
  size_t start = options.pins.size();
  // Deduplicate: pins may repeat a node; recompute actual prefix length.
  {
    size_t prefix = 0;
    for (const Step& s : plan_) {
      if (assignment_[s.u] != kInvalidVertex) {
        ++prefix;
      } else {
        break;
      }
    }
    start = prefix;
  }
  // Temporarily rebase the plan so Extend() starts at the right depth.
  plan_.erase(plan_.begin(), plan_.begin() + static_cast<ptrdiff_t>(start));
  PlanChecks();
  Extend(0, options, cb);
  return !overflow_;
}

bool GenericMatcher::FindAny(const SearchOptions& options,
                             std::vector<VertexId>* found) {
  bool any = false;
  SearchOptions opts = options;
  Callback cb = [&](const std::vector<VertexId>& assignment) {
    any = true;
    if (found != nullptr) *found = assignment;
    return false;  // stop at first
  };
  Enumerate(opts, cb);
  return any;
}

}  // namespace qgp
