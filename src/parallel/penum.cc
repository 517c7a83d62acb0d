#include "parallel/penum.h"

#include "core/enum_matcher.h"

namespace qgp {

Result<ParallelRunResult> PEnum::Evaluate(const Pattern& pattern,
                                          const Partition& partition,
                                          const ParallelConfig& config) {
  // Enum over each fragment's owned foci: Π(Q) minus each Π(Q⁺ᵉ)
  // re-enumerated from scratch (no incremental reuse — that is the
  // point of the baseline), sharing one fragment-local intern pool.
  return RunFragments(
      pattern, partition, config,
      [&](const Fragment& f, MatchStats* stats) {
        return EnumMatcher::Evaluate(pattern, f.sub.graph, config.match,
                                     stats, nullptr, f.owned_local);
      });
}

}  // namespace qgp
