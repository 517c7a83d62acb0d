#include "core/match_types.h"

#include <algorithm>
#include <sstream>

namespace qgp {

void MatchStats::Add(const MatchStats& other) {
  isomorphisms_enumerated += other.isomorphisms_enumerated;
  witness_searches += other.witness_searches;
  search_extensions += other.search_extensions;
  candidates_initial += other.candidates_initial;
  candidates_pruned += other.candidates_pruned;
  focus_candidates_checked += other.focus_candidates_checked;
  inc_candidates_checked += other.inc_candidates_checked;
  balls_built += other.balls_built;
  scheduler_tasks += other.scheduler_tasks;
  scheduler_steals += other.scheduler_steals;
}

std::string MatchStats::ToString() const {
  std::ostringstream out;
  out << "isos=" << isomorphisms_enumerated
      << " witness=" << witness_searches << " ext=" << search_extensions
      << " cand0=" << candidates_initial << " pruned=" << candidates_pruned
      << " focus=" << focus_candidates_checked
      << " inc=" << inc_candidates_checked << " balls=" << balls_built
      << " sched_tasks=" << scheduler_tasks
      << " sched_steals=" << scheduler_steals;
  return out.str();
}

void Canonicalize(AnswerSet& answers) {
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
}

AnswerSet SetIntersection(const AnswerSet& a, const AnswerSet& b) {
  AnswerSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

AnswerSet SetDifference(const AnswerSet& a, const AnswerSet& b) {
  AnswerSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace qgp
