#include "engine/planner.h"

#include "engine/query_engine.h"

namespace qgp {

EngineAlgo Plan(const Pattern& q, const PlannerConfig& config,
                const PlanContext& ctx) {
  // Negated edges need the Π(Q)/Q⁺ᵉ set-difference machinery; QMatch's
  // incremental negation is the specialist. A submitted
  // use_incremental_negation = false passes through and makes it the
  // QMatchn baseline.
  if (!q.IsPositive()) return EngineAlgo::kQMatch;

  // Fragment-parallel evaluation pays for its scatter/gather only on big
  // graphs, and is available only when the pattern's radius fits the
  // partition's hop-preservation depth.
  const bool partition_pays =
      ctx.graph->num_vertices() >= config.partition_vertex_cutoff &&
      ctx.partition_fragments > 1 && q.Radius() <= ctx.partition_d;

  if (q.IsConventional()) {
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
    // A handful of foci and no counting quantifiers: direct
    // enumerate-then-verify beats setting up the dual-simulation
    // fixpoint.
    if (focus_count <= config.enum_focus_cutoff) {
      return partition_pays ? EngineAlgo::kPEnum : EngineAlgo::kEnum;
    }
  }
  return partition_pays ? EngineAlgo::kPQMatch : EngineAlgo::kQMatch;
}

}  // namespace qgp
