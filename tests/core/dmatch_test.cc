// Direct coverage of DMatch (§4.1): PositiveEvaluator, its focus map
// (EvaluateSubset) and QMatch on positive patterns, where QMatch is
// DMatch over Π(Q) = Q. Ground truth comes from the paper's Fig. 2
// examples and from the enumeration baseline, which shares none of
// DMatch's pruning.
#include "core/dmatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "core/enum_matcher.h"
#include "core/pattern_parser.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "graph/graph_builder.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

using qgp::testing::BuildG1;
using qgp::testing::BuildG2;
using qgp::testing::BuildQ2;
using qgp::testing::BuildQ3;
using qgp::testing::BuildQ4;
using qgp::testing::G1Ids;
using qgp::testing::G2Ids;

TEST(DMatchDirectTest, Q2OnG1MatchesExample3) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q2 = BuildQ2(g.mutable_dict());
  MatchStats stats;
  auto res = QMatch::Evaluate(q2, g, MatchOptions{}, &stats);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(*res, (AnswerSet{ids.x1, ids.x2}));
  EXPECT_GT(stats.focus_candidates_checked, 0u);
}

TEST(DMatchDirectTest, PiOfQ3OnG1MatchesExample6) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q3 = BuildQ3(g.mutable_dict(), /*p=*/2);
  auto pi = q3.Pi();
  ASSERT_TRUE(pi.ok()) << pi.status().ToString();
  MatchStats stats;
  auto res = QMatch::Evaluate(pi->first, g, MatchOptions{}, &stats);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(*res, (AnswerSet{ids.x2, ids.x3}));
}

TEST(DMatchDirectTest, PiOfQ4OnG2CountsAdvisees) {
  G2Ids ids;
  Graph g = BuildG2(&ids);
  // Without the PhD negation, x4 qualifies too (advises v5 and v6).
  Pattern q4 = BuildQ4(g.mutable_dict(), /*p=*/2);
  auto pi = q4.Pi();
  ASSERT_TRUE(pi.ok());
  auto res = QMatch::Evaluate(pi->first, g, MatchOptions{}, nullptr);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(*res, (AnswerSet{ids.x4, ids.x5, ids.x6}));
  // At p = 3 only x6 advises three UK professors... x6's third advisee v9
  // is in the US, so nobody qualifies.
  Pattern q4p3 = BuildQ4(g.mutable_dict(), /*p=*/3);
  auto pi3 = q4p3.Pi();
  ASSERT_TRUE(pi3.ok());
  auto res3 = QMatch::Evaluate(pi3->first, g, MatchOptions{}, nullptr);
  ASSERT_TRUE(res3.ok());
  EXPECT_TRUE(res3->empty());
}

TEST(DMatchDirectTest, VerifyFocusAgreesWithEvaluateAll) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q2 = BuildQ2(g.mutable_dict());
  auto ev = PositiveEvaluator::Create(q2, g, MatchOptions{});
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  AnswerSet all =
      ev->EvaluateSubset(ev->FocusCandidates(), nullptr, nullptr, nullptr);
  for (VertexId vx : ev->FocusCandidates()) {
    bool member = std::binary_search(all.begin(), all.end(), vx);
    MatchStats stats;
    EXPECT_EQ(ev->VerifyFocus(vx, nullptr, nullptr, &stats), member)
        << "focus candidate " << vx;
  }
}

TEST(DMatchDirectTest, EvaluateSubsetRestrictsTheDomain) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q2 = BuildQ2(g.mutable_dict());
  auto ev = PositiveEvaluator::Create(q2, g, MatchOptions{});
  ASSERT_TRUE(ev.ok());
  // Q2(xo, G1) = {x1, x2}; restricting to {x2, x3} must yield {x2}.
  std::vector<VertexId> subset = {ids.x2, ids.x3};
  AnswerSet res = ev->EvaluateSubset(subset, nullptr, nullptr, nullptr);
  EXPECT_EQ(res, (AnswerSet{ids.x2}));
  // Empty subset, empty answer, no work.
  MatchStats stats;
  AnswerSet empty = ev->EvaluateSubset({}, nullptr, nullptr, &stats);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(stats.focus_candidates_checked, 0u);
}

TEST(DMatchDirectTest, EvaluateAllFillsCaches) {
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q2 = BuildQ2(g.mutable_dict());
  auto ev = PositiveEvaluator::Create(q2, g, MatchOptions{});
  ASSERT_TRUE(ev.ok());
  std::unordered_map<VertexId, FocusCache> caches;
  AnswerSet all =
      ev->EvaluateSubset(ev->FocusCandidates(), nullptr, &caches, nullptr);
  EXPECT_EQ(caches.size(), all.size());
  for (VertexId vx : all) EXPECT_TRUE(caches.contains(vx));
}

TEST(DMatchDirectTest, RejectsNegatedPatterns) {
  Graph g = BuildG1(nullptr);
  Pattern q3 = BuildQ3(g.mutable_dict(), 2);  // has a =0 edge
  auto ev = PositiveEvaluator::Create(q3, g, MatchOptions{});
  EXPECT_FALSE(ev.ok());
}

MatchOptions Ablated(bool simulation, bool pruning, bool ordering,
                     bool early_stop) {
  MatchOptions o;
  o.use_simulation = simulation;
  o.use_quantifier_pruning = pruning;
  o.use_potential_ordering = ordering;
  o.early_stop_counting = early_stop;
  return o;
}

TEST(DMatchDirectTest, OptionTogglesPreserveAnswersOnGeneratedWorkload) {
  SocialConfig sc;
  sc.num_users = 300;
  sc.community_size = 60;
  Graph g = std::move(GenerateSocialGraph(sc)).value();
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 2;
  pc.percent = 40.0;
  pc.num_negated = 0;  // positive-only: DMatch's own domain
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 4, pc, 97);
  ASSERT_FALSE(patterns.empty());
  size_t compared = 0;
  for (const Pattern& q : patterns) {
    auto pi = q.Pi();
    ASSERT_TRUE(pi.ok());
    const Pattern& pos = pi->first;
    auto baseline =
        EnumMatcher::EvaluatePositive(pos, g, MatchOptions{}, nullptr);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (MatchOptions o :
         {Ablated(true, true, true, true), Ablated(false, true, true, true),
          Ablated(true, false, true, true), Ablated(true, true, false, true),
          Ablated(true, true, true, false),
          Ablated(false, false, false, false)}) {
      auto res = QMatch::Evaluate(pos, g, o, nullptr);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(*res, *baseline);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(DMatchDirectTest, TinyBallLimitFallsBackCorrectly) {
  // A ball cap of 1 forces the hub guard's global-candidate fallback on
  // every focus; answers must not change.
  G1Ids ids;
  Graph g = BuildG1(&ids);
  Pattern q2 = BuildQ2(g.mutable_dict());
  MatchOptions capped;
  capped.ball_limit = 1;
  auto res = QMatch::Evaluate(q2, g, capped, nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (AnswerSet{ids.x1, ids.x2}));
}

// Star fixture for the counting cut: one focus `x` follows `bad` leading
// children (lower ids, so counted first) and then `good` trailing ones.
// Every child buys an item, so all pass the label filter and dual
// simulation, but the pattern needs two DISTINCT items per child and a
// bad child buys only one: each bad child costs one witness search that
// fails, each good child one that succeeds.
struct Star {
  Graph g;
  VertexId x = kInvalidVertex;
};

Star BuildStar(int bad, int good) {
  GraphBuilder b;
  Star s;
  s.x = b.AddVertex("person");
  std::vector<VertexId> children;
  for (int i = 0; i < bad + good; ++i) {
    children.push_back(b.AddVertex("person"));
  }
  const VertexId lone = b.AddVertex("item");
  const VertexId i1 = b.AddVertex("item");
  const VertexId i2 = b.AddVertex("item");
  for (int i = 0; i < bad + good; ++i) {
    (void)b.AddEdge(s.x, children[i], "follow");
    if (i < bad) {
      (void)b.AddEdge(children[i], lone, "buys");
    } else {
      (void)b.AddEdge(children[i], i1, "buys");
      (void)b.AddEdge(children[i], i2, "buys");
    }
  }
  s.g = std::move(b).Build().value();
  return s;
}

// xo -follow(f)-> z, z -buys-> a, z -buys-> b (a != b by injectivity).
Pattern StarPattern(LabelDict& dict, Quantifier f) {
  Pattern q;
  PatternNodeId xo = q.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z = q.AddNode(dict.Intern("person"), "z");
  PatternNodeId a = q.AddNode(dict.Intern("item"), "a");
  PatternNodeId b = q.AddNode(dict.Intern("item"), "b");
  (void)q.AddEdge(xo, z, dict.Intern("follow"), f);
  (void)q.AddEdge(z, a, dict.Intern("buys"));
  (void)q.AddEdge(z, b, dict.Intern("buys"));
  (void)q.set_focus(xo);
  return q;
}

struct CutCase {
  const char* name;
  Quantifier f;
  int bad;
  int good;
  bool member;               // x ∈ Q(xo, G)
  uint64_t searches_cut;     // witness searches with early_stop_counting
};

// Counting stops once the verdict is settled in either direction; with
// early_stop_counting off every child in Lπ(z) is searched, as before.
TEST(DMatchDirectTest, CountingStopsOnceTheVerdictIsSettled) {
  const CutCase cases[] = {
      // Two leading failures leave 8 < 9 reachable: stop after 2.
      {">=90% unreachable", Quantifier::Ratio(QuantOp::kGe, 90.0), 2, 8,
       false, 2},
      // One failure still leaves 9 reachable; the ninth witness meets it.
      {">=90% met", Quantifier::Ratio(QuantOp::kGe, 90.0), 1, 9, true, 10},
      // A single failure rules out =100%.
      {"=100% unreachable", Quantifier::Universal(), 1, 9, false, 1},
      {">=9 unreachable", Quantifier::Numeric(QuantOp::kGe, 9), 2, 8, false,
       2},
      // Success still stops early: 3 witnesses after the 2 failures.
      {">=3 met", Quantifier::Numeric(QuantOp::kGe, 3), 2, 8, true, 5},
      // =p landing exactly on p must count every child.
      {"=8 exact", Quantifier::Numeric(QuantOp::kEq, 8), 2, 8, true, 10},
      // =p overshot: the sixth witness settles it after 2 + 6 searches.
      {"=5 overshot", Quantifier::Numeric(QuantOp::kEq, 5), 2, 8, false, 8},
      {"=9 unreachable", Quantifier::Numeric(QuantOp::kEq, 9), 2, 8, false,
       2},
  };
  for (const CutCase& c : cases) {
    Star star = BuildStar(c.bad, c.good);
    Pattern q = StarPattern(star.g.mutable_dict(), c.f);
    for (bool cut : {true, false}) {
      MatchOptions o;
      o.early_stop_counting = cut;
      MatchStats stats;
      auto res = QMatch::Evaluate(q, star.g, o, &stats);
      ASSERT_TRUE(res.ok()) << c.name << ": " << res.status().ToString();
      EXPECT_EQ(*res, c.member ? AnswerSet{star.x} : AnswerSet{})
          << c.name << " cut=" << cut;
      EXPECT_EQ(stats.focus_candidates_checked, 1u) << c.name;
      const uint64_t every_child = c.bad + c.good;
      EXPECT_EQ(stats.witness_searches, cut ? c.searches_cut : every_child)
          << c.name << " cut=" << cut;
    }
  }
}

// A bound already below the threshold settles the verdict before any
// search. Candidate pruning would drop x first, so it is off here.
TEST(DMatchDirectTest, CountingSkipsSearchesWhenTheBoundIsShort) {
  Star star = BuildStar(0, 10);
  Pattern q =
      StarPattern(star.g.mutable_dict(), Quantifier::Numeric(QuantOp::kGe, 11));
  for (bool cut : {true, false}) {
    MatchOptions o;
    o.use_quantifier_pruning = false;
    o.early_stop_counting = cut;
    MatchStats stats;
    auto res = QMatch::Evaluate(q, star.g, o, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->empty());
    EXPECT_EQ(stats.witness_searches, cut ? 0u : 10u) << "cut=" << cut;
  }
}

// Each node's view is masked by the ball of its own hop distance from
// the focus, but the plan order must compare sizes counted over the full
// ball. On this cyclic pattern n1, n2 and n4 follow the focus and n3;
// counted by level, the followers' views looked smallest, the plan put
// off n3, which closes the cycles, and the search ran about 6M
// extensions where full-ball sizes need under 10K.
TEST(DMatchDirectTest, PlanOrderComparesFullBallSizes) {
  SocialConfig c;
  c.num_users = 800;
  c.num_products = 20;
  c.num_albums = 10;
  c.community_size = 250;
  Graph g = std::move(GenerateSocialGraph(c)).value();
  auto q = PatternParser::Parse(
      "node n0 person\nnode n1 person\nnode n2 person\nnode n3 person\n"
      "node n4 person\nedge n1 n0 follow >=50%\nedge n2 n0 follow >=50%\n"
      "edge n1 n3 follow\nedge n4 n3 follow\nedge n4 n0 follow\n"
      "edge n2 n3 follow\nfocus n0\n",
      g.mutable_dict());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  MatchStats stats;
  auto res = QMatch::Evaluate(*q, g, MatchOptions{}, &stats);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto oracle = EnumMatcher::Evaluate(*q, g, MatchOptions{}, nullptr);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(*res, *oracle);
  EXPECT_FALSE(res->empty());
  EXPECT_LT(stats.search_extensions, 50'000u);
}

}  // namespace
}  // namespace qgp
