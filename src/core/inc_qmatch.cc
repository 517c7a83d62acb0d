#include "core/inc_qmatch.h"

namespace qgp {

AnswerSet IncQMatchEvaluate(const PositiveEvaluator& evaluator,
                            const AnswerSet& cached_answers,
                            const FocusCaches& caches, MatchStats* stats) {
  if (stats != nullptr) stats->inc_candidates_checked += cached_answers.size();
  return evaluator.EvaluateSubset(cached_answers, stats, nullptr, nullptr,
                                  &caches);
}

}  // namespace qgp
