// Work-counter pin for focus verification. A small social graph and 24
// generated quantified patterns run through every verification route:
// QMatch with incremental negation on and off, Enum, QMatch with a ball
// limit small enough that most balls abort (the hub-guard path that
// searches global candidate sets), and IncQMatch re-verifying Π(Q⁺ᵉ)
// from warm Π(Q) caches. Per route, a digest of every answer set and
// the summed non-scheduler MatchStats must equal the constants below.
// The QMatch routes' answer searches try only good(u) members, so their
// search_extensions leave out every vertex quantifier pruning removed.
//
// The constants describe the work the matchers do, not a tolerance: a
// change to the search that keeps answers but visits candidates in a
// different order, or tries more of them, moves a counter. Update them
// only for a change that means to alter the work, and say so.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dmatch.h"
#include "core/enum_matcher.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"

namespace qgp {
namespace {

// Digest of the answers plus the summed work counters of one route.
struct RouteWork {
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  MatchStats stats;

  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (x >> (8 * i)) & 0xFF;
      digest *= 1099511628211ULL;
    }
  }
  void MixAnswers(size_t pattern, const Result<AnswerSet>& answers) {
    Mix(pattern);
    if (!answers.ok()) {
      Mix(~0ULL);
      return;
    }
    Mix(answers->size());
    for (VertexId v : *answers) Mix(v);
  }
};

// The pinned values, in MatchStats field order.
struct Pinned {
  uint64_t digest;
  uint64_t isomorphisms_enumerated;
  uint64_t witness_searches;
  uint64_t search_extensions;
  uint64_t candidates_initial;
  uint64_t candidates_pruned;
  uint64_t focus_candidates_checked;
  uint64_t inc_candidates_checked;
  uint64_t balls_built;
};

void ExpectPinned(const char* route, const RouteWork& got,
                  const Pinned& want) {
  const MatchStats& s = got.stats;
  // One line with every actual value, so a deliberate update is a copy.
  const std::string actual =
      std::string(route) + ": {" + std::to_string(got.digest) + "ULL, " +
      std::to_string(s.isomorphisms_enumerated) + ", " +
      std::to_string(s.witness_searches) + ", " +
      std::to_string(s.search_extensions) + ", " +
      std::to_string(s.candidates_initial) + ", " +
      std::to_string(s.candidates_pruned) + ", " +
      std::to_string(s.focus_candidates_checked) + ", " +
      std::to_string(s.inc_candidates_checked) + ", " +
      std::to_string(s.balls_built) + "}";
  SCOPED_TRACE(actual);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(s.isomorphisms_enumerated, want.isomorphisms_enumerated);
  EXPECT_EQ(s.witness_searches, want.witness_searches);
  EXPECT_EQ(s.search_extensions, want.search_extensions);
  EXPECT_EQ(s.candidates_initial, want.candidates_initial);
  EXPECT_EQ(s.candidates_pruned, want.candidates_pruned);
  EXPECT_EQ(s.focus_candidates_checked, want.focus_candidates_checked);
  EXPECT_EQ(s.inc_candidates_checked, want.inc_candidates_checked);
  EXPECT_EQ(s.balls_built, want.balls_built);
}

class VerifyWorkPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SocialConfig sc;
    sc.num_users = 120;
    sc.num_products = 20;
    sc.num_albums = 10;
    sc.num_clubs = 6;
    sc.num_hobbies = 6;
    sc.num_cities = 6;
    sc.community_size = 30;
    sc.seed = 11;
    graph_ = new Graph(std::move(GenerateSocialGraph(sc)).value());
    patterns_ = new std::vector<Pattern>();
    // Half numeric (>= p), half ratio (>= p%) quantifiers; every pattern
    // carries a negated edge, so both negation modes do real work.
    PatternGenConfig numeric;
    numeric.num_nodes = 4;
    numeric.num_edges = 4;
    numeric.num_quantified = 1;
    numeric.kind = QuantKind::kNumeric;
    numeric.count = 2;
    numeric.num_negated = 1;
    PatternGenConfig ratio = numeric;
    ratio.kind = QuantKind::kRatio;
    ratio.percent = 30.0;
    ratio.num_quantified = 2;
    for (const PatternGenConfig* pc : {&numeric, &ratio}) {
      for (Pattern& p : GeneratePatternSuite(*graph_, 12, *pc, 5)) {
        patterns_->push_back(std::move(p));
      }
    }
  }
  static void TearDownTestSuite() {
    delete patterns_;
    delete graph_;
  }

  // One QMatch route over every pattern.
  static RouteWork RunQMatch(const MatchOptions& options) {
    RouteWork work;
    for (size_t i = 0; i < patterns_->size(); ++i) {
      work.MixAnswers(
          i, QMatch::Evaluate((*patterns_)[i], *graph_, options, &work.stats));
    }
    return work;
  }

  static Graph* graph_;
  static std::vector<Pattern>* patterns_;
};

Graph* VerifyWorkPinTest::graph_ = nullptr;
std::vector<Pattern>* VerifyWorkPinTest::patterns_ = nullptr;

TEST_F(VerifyWorkPinTest, SuiteIsTheOnePinned) {
  EXPECT_EQ(graph_->num_vertices(), 168u);
  EXPECT_EQ(patterns_->size(), 24u);
}

TEST_F(VerifyWorkPinTest, QMatchIncrementalNegation) {
  MatchOptions options;
  ExpectPinned("qmatch", RunQMatch(options),
               {12049431453365282577ULL, 2761, 2128, 8187, 13882, 6252, 1625,
                808, 1625});
}

TEST_F(VerifyWorkPinTest, QMatchRecomputedNegation) {
  MatchOptions options;
  options.use_incremental_negation = false;
  ExpectPinned("qmatch naive", RunQMatch(options),
               {12049431453365282577ULL, 2775, 2378, 8463, 13882, 6252, 1731,
                0, 1731});
}

TEST_F(VerifyWorkPinTest, QMatchHubGuard) {
  // A ball that passes 8 vertices aborts, and its focus verifies over
  // the global candidate sets.
  MatchOptions options;
  options.ball_limit = 8;
  ExpectPinned("qmatch hub guard", RunQMatch(options),
               {12049431453365282577ULL, 2761, 2129, 8234, 13882, 6252, 1625,
                808, 1625});
}

TEST_F(VerifyWorkPinTest, Enum) {
  // Per-focus cap: a pattern whose focus passes it ends in an error,
  // which the digest records after the work done up to that point.
  MatchOptions options;
  options.max_isomorphisms = 5'000;
  RouteWork work;
  for (size_t i = 0; i < patterns_->size(); ++i) {
    work.MixAnswers(i, EnumMatcher::Evaluate((*patterns_)[i], *graph_,
                                             options, &work.stats));
  }
  ExpectPinned("enum", work,
               {3955706322691263745ULL, 90696, 0, 162704, 15960, 4792, 2886,
                0, 0});
}

TEST_F(VerifyWorkPinTest, WarmIncQMatch) {
  // Π(Q) runs cold and caches every answer's failed pairs; IncQMatch
  // then re-verifies those answers against each Π(Q⁺ᵉ), seeded from them,
  // and counts them in inc_candidates_checked as QMatch's loop does.
  MatchOptions options;
  RouteWork work;
  size_t warm_runs = 0;
  for (size_t i = 0; i < patterns_->size(); ++i) {
    const Pattern& q = (*patterns_)[i];
    auto pi = q.Pi();
    ASSERT_TRUE(pi.ok());
    auto ev0 = PositiveEvaluator::Create(
        pi->first, *graph_, options, &pi->second.edge_to_original,
        q.num_edges());
    ASSERT_TRUE(ev0.ok());
    std::unordered_map<VertexId, FocusCache> caches;
    const AnswerSet cold = ev0->EvaluateSubset(ev0->FocusCandidates(),
                                               nullptr, &caches, &work.stats);
    work.MixAnswers(i, cold);
    for (PatternEdgeId neg : q.NegatedEdgeIds()) {
      auto positified = q.Positify(neg);
      ASSERT_TRUE(positified.ok());
      auto pi_pos = positified->Pi();
      ASSERT_TRUE(pi_pos.ok());
      auto ev_e = PositiveEvaluator::Create(
          pi_pos->first, *graph_, options,
          &pi_pos->second.edge_to_original, q.num_edges());
      ASSERT_TRUE(ev_e.ok());
      work.stats.inc_candidates_checked += cold.size();
      work.MixAnswers(
          i, ev_e->EvaluateSubset(cold, &caches, nullptr, &work.stats));
      warm_runs += cold.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(warm_runs, 0u);
  ExpectPinned("warm incqmatch", work,
               {17252826035894904589ULL, 2761, 2128, 8187, 0, 0, 1625, 808,
                1625});
}

}  // namespace
}  // namespace qgp
