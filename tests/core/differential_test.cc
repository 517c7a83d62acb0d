// Differential property suite for the matcher family: on randomized
// (graph, pattern) pairs from the synthetic generators, NaiveMatcher,
// EnumMatcher and QMatch must return identical AnswerSets, and QMatch
// with incremental negation on/off (QMatch vs QMatchn) must agree on
// patterns with negated edges. This is the safety net under the
// bitset hot paths: any candidate-view bug that changes answers trips
// one of these ~200+ comparisons.
#include <gtest/gtest.h>

#include <string>

#include "core/enum_matcher.h"
#include "core/naive_matcher.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 40 + seed % 17;
  gc.num_edges = 110 + (seed % 13) * 5;
  gc.num_node_labels = 5 + seed % 3;
  gc.num_edge_labels = 3;
  gc.model = (seed % 2 == 0) ? SyntheticConfig::Model::kSmallWorld
                             : SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

PatternGenConfig MakePatternConfig(uint64_t seed) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4 + seed % 2;
  pc.num_quantified = 1 + seed % 2;
  pc.kind = (seed % 3 == 0) ? QuantKind::kNumeric : QuantKind::kRatio;
  pc.op = (seed % 5 == 0) ? QuantOp::kEq : QuantOp::kGe;
  pc.percent = 30.0 + 20.0 * (seed % 3);
  pc.count = 2 + seed % 2;
  pc.num_negated = seed % 3;
  return pc;
}

// QMatchn, the §7 baseline: every Π(Q⁺ᵉ) recomputed from scratch.
MatchOptions QMatchnOptions() {
  MatchOptions o;
  o.use_incremental_negation = false;
  return o;
}

// All four matchers against the brute-force oracle, across enough seeds
// to accumulate at least 200 fully compared cases.
TEST(DifferentialTest, MatchersAgreeOnRandomizedCases) {
  size_t compared = 0;
  size_t compared_negated = 0;
  MatchOptions capped;
  capped.max_isomorphisms = 2'000'000;
  for (uint64_t seed = 1; seed <= 60 && compared < 220; ++seed) {
    Graph g = MakeGraph(seed);
    std::vector<Pattern> patterns =
        GeneratePatternSuite(g, 10, MakePatternConfig(seed), seed * 131 + 7);
    for (size_t i = 0; i < patterns.size(); ++i) {
      const Pattern& q = patterns[i];
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(i) + ":\n" + q.ToString(&g.dict()));
      auto oracle = NaiveMatcher::Evaluate(q, g, capped);
      if (!oracle.ok()) continue;  // oracle overflow: skip, do not fail
      auto en = EnumMatcher::Evaluate(q, g, capped);
      if (!en.ok()) continue;  // enum overflow on a hub-heavy case
      auto qm = QMatch::Evaluate(q, g);
      ASSERT_TRUE(qm.ok()) << qm.status().ToString();
      auto qmn = QMatch::Evaluate(q, g, QMatchnOptions());
      ASSERT_TRUE(qmn.ok()) << qmn.status().ToString();
      EXPECT_EQ(qm.value(), oracle.value()) << "QMatch disagrees";
      EXPECT_EQ(qmn.value(), oracle.value()) << "QMatchn disagrees";
      EXPECT_EQ(en.value(), oracle.value()) << "Enum disagrees";
      ++compared;
      if (!q.NegatedEdgeIds().empty()) ++compared_negated;
    }
  }
  // The suite is only meaningful at volume; if generation or screening
  // starts eating cases, widen the seed range instead of shrinking this.
  EXPECT_GE(compared, 200u);
  EXPECT_GE(compared_negated, 30u);
}

// Incremental negation is an optimization, never a semantics change:
// QMatch (IncQMatch) and QMatchn (full recomputation) must agree on
// every negated pattern — checked without the oracle so hub-heavy cases
// the brute force cannot finish are covered too.
TEST(DifferentialTest, IncrementalNegationAgreesOnNegatedPatterns) {
  size_t compared = 0;
  for (uint64_t seed = 101; seed <= 140 && compared < 60; ++seed) {
    Graph g = MakeGraph(seed);
    PatternGenConfig pc = MakePatternConfig(seed);
    pc.num_negated = 1 + seed % 2;
    std::vector<Pattern> patterns =
        GeneratePatternSuite(g, 6, pc, seed * 977 + 3);
    for (size_t i = 0; i < patterns.size(); ++i) {
      const Pattern& q = patterns[i];
      if (q.NegatedEdgeIds().empty()) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(i) + ":\n" + q.ToString(&g.dict()));
      auto qm = QMatch::Evaluate(q, g);
      ASSERT_TRUE(qm.ok()) << qm.status().ToString();
      auto qmn = QMatch::Evaluate(q, g, QMatchnOptions());
      ASSERT_TRUE(qmn.ok()) << qmn.status().ToString();
      EXPECT_EQ(qm.value(), qmn.value())
          << "IncQMatch and full recomputation disagree";
      ++compared;
    }
  }
  EXPECT_GE(compared, 40u);
}

}  // namespace
}  // namespace qgp
