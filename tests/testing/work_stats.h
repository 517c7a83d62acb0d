#ifndef QGP_TESTS_TESTING_WORK_STATS_H_
#define QGP_TESTS_TESTING_WORK_STATS_H_

// The work-identity check of the differential suites: two runs of the
// same query did the same work when every MatchStats counter but the
// schedule telemetry agrees. It walks MatchStats::Fields(), so a new
// counter is compared everywhere without touching a test.

#include <string>

#include <gtest/gtest.h>

#include "core/match_types.h"

namespace qgp::testing {

inline void ExpectSameWork(const MatchStats& a, const MatchStats& b,
                           const std::string& context = "") {
  for (const auto& field : MatchStats::Fields()) {
    if (field.schedule) continue;
    EXPECT_EQ(a.*field.member, b.*field.member) << field.name << " " << context;
  }
}

}  // namespace qgp::testing

#endif  // QGP_TESTS_TESTING_WORK_STATS_H_
