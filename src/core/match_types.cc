#include "core/match_types.h"

#include <algorithm>
#include <sstream>

namespace qgp {

void MatchStats::Add(const MatchStats& other) {
  for (const auto& field : Fields()) this->*field.member += other.*field.member;
}

std::string MatchStats::ToString() const {
  std::ostringstream out;
  const char* separator = "";
  for (const auto& field : Fields()) {
    out << separator << field.name << '=' << this->*field.member;
    separator = " ";
  }
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
