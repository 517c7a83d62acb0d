#include "engine/planner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "engine/query_engine.h"

namespace qgp {

namespace {

// One character per quantifier CLASS — the only quantifier information
// that survives into the family key. Parameters (counts, percents,
// comparison ops) are stripped so the miner's quantifier-only variants
// land on one entry.
char QuantifierClass(const Quantifier& f) {
  if (f.IsNegation()) return '!';
  if (f.IsExistential()) return '.';
  return 'q';
}

}  // namespace

std::string Planner::FamilyKey(const Pattern& q) {
  // Same canonical structure as the engine's result key (numeric node
  // ids + label ids, names ignored), minus options and minus quantifier
  // parameters.
  std::ostringstream key;
  for (PatternNodeId u = 0; u < q.num_nodes(); ++u) {
    key << 'n' << q.node(u).label << ';';
  }
  for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
    const PatternEdge& pe = q.edge(e);
    key << 'e' << pe.src << ',' << pe.dst << ',' << pe.label << ','
        << QuantifierClass(pe.quantifier) << ';';
  }
  key << 'f' << q.focus();
  return std::move(key).str();
}

PlanDecision Planner::Plan(const Pattern& q, const MatchOptions& submitted,
                           const Context& ctx) {
  PlanDecision decision;
  decision.options = submitted;

  EngineAlgo base = EngineAlgo::kQMatch;
  size_t grain = 0;
  bool planned = false;

  // Cache-bypassing specs (ctx.cache == nullptr) also bypass the plan
  // cache: their estimate is computed fresh and the decision not stored,
  // mirroring how share_cache = false queries treat every shared
  // structure.
  std::string key;
  if (ctx.cache != nullptr) {
    key = FamilyKey(q);
    auto it = plans_.find(key);
    if (it != plans_.end() && it->second.version == ctx.graph_version) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // refresh LRU
      base = it->second.algo;
      grain = it->second.scheduler_grain;
      decision.cache_hit = true;
      planned = true;
    } else if (it != plans_.end()) {
      // Stale stamp: ApplyDelta's sweep already removes these; the probe
      // guard makes staleness impossible to serve regardless.
      lru_.erase(it->second.lru);
      plans_.erase(it);
    }
  }

  if (!planned) {
    // Focus cardinality: the label/degree set the chosen evaluation
    // starts from anyway. Interned sets are equal by value to freshly
    // computed ones, so the estimate — and hence the plan — never
    // depends on cache temperature.
    const Label focus_label = q.node(q.focus()).label;
    const size_t focus_count =
        ctx.cache != nullptr
            ? ctx.cache->Get(focus_label, {}, {})->members.size()
            : ComputeLabelDegreeSet(*ctx.graph, focus_label, {}, {})
                  ->members.size();

    // Fragment-parallel evaluation pays for its scatter/gather only on
    // big graphs, and is available only when the pattern's radius fits
    // the partition's hop-preservation depth.
    const bool partition_pays =
        ctx.graph->num_vertices() >= config_.partition_vertex_cutoff &&
        ctx.partition_fragments > 1 &&
        q.Radius() <= ctx.partition_d;

    if (!q.IsPositive()) {
      // Negated edges need the Π(Q)/Q⁺ᵉ set-difference machinery;
      // QMatch's incremental negation is the specialist. A submitted
      // use_incremental_negation = false passes through and makes it
      // the QMatchn baseline, under the same family plan.
      base = EngineAlgo::kQMatch;
    } else if (q.IsConventional() &&
               focus_count <= config_.enum_focus_cutoff) {
      // A handful of foci and no counting quantifiers: direct
      // enumerate-then-verify beats setting up the dual-simulation
      // fixpoint.
      base = partition_pays ? EngineAlgo::kPEnum : EngineAlgo::kEnum;
    } else if (partition_pays) {
      base = EngineAlgo::kPQMatch;
    } else {
      base = EngineAlgo::kQMatch;
    }

    // Scheduler fill: the same ≈ |foci| / (threads · 8) heuristic the
    // matchers use for grain 0, pinned here so the whole family shares
    // one schedule shape. Affects only scheduler telemetry, never
    // answers or work counters.
    const size_t slots = std::max<size_t>(1, ctx.num_threads) * 8;
    grain = std::max<size_t>(1, focus_count / slots);

    if (ctx.cache != nullptr) {
      // Plan-cache capacity in pattern families, LRU.
      constexpr size_t kPlanCacheMaxEntries = 256;
      lru_.push_front(key);
      plans_[std::move(key)] =
          CachedPlan{base, grain, ctx.graph_version, lru_.begin()};
      if (plans_.size() > kPlanCacheMaxEntries) {
        plans_.erase(lru_.back());  // least recently used
        lru_.pop_back();
      }
    }
  }

  decision.algo = base;
  if (decision.options.scheduler_grain == 0) {
    decision.options.scheduler_grain = grain;
  }
  return decision;
}

size_t Planner::EvictStale(uint64_t current_version) {
  size_t evicted = 0;
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->second.version != current_version) {
      lru_.erase(it->second.lru);
      it = plans_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

bool Planner::Forget(const Pattern& q) {
  auto it = plans_.find(FamilyKey(q));
  if (it == plans_.end()) return false;
  lru_.erase(it->second.lru);
  plans_.erase(it);
  return true;
}

}  // namespace qgp
