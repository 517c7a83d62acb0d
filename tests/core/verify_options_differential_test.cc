// Differential suite for the QMatch strategy switches: on small social
// and knowledge graphs from gen/, with generated quantified patterns
// (numeric and ratio, `>=` and `=`, with and without negated edges),
// QMatch must return NaiveMatcher's answers under every combination of
// use_quantifier_pruning, early_stop_counting, use_potential_ordering
// and use_incremental_negation — over the full focus set and over a
// focus subset (QMatch::EvaluateSubset, PQMatch's per-fragment entry).
// The switches change the work, never the answers. A hand-built case
// pins the §2.2 rule that quantifier pruning must not cascade: a child
// counted for its parent's quantifier need not satisfy its own.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/naive_matcher.h"
#include "core/pattern_parser.h"
#include "core/qmatch.h"
#include "gen/knowledge_gen.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

Graph SmallSocialGraph() {
  SocialConfig sc;
  sc.num_users = 200;
  sc.num_products = 20;
  sc.num_albums = 10;
  sc.num_clubs = 6;
  sc.num_hobbies = 6;
  sc.num_cities = 6;
  sc.community_size = 40;
  sc.seed = 23;
  return std::move(GenerateSocialGraph(sc)).value();
}

Graph SmallKnowledgeGraph() {
  KnowledgeConfig kc;
  kc.num_scientists = 300;
  kc.num_universities = 12;
  kc.num_prizes = 6;
  kc.num_countries = 4;
  kc.seed = 29;
  return std::move(GenerateKnowledgeGraph(kc)).value();
}

// Four pattern families: numeric and ratio quantifiers, `>=` and `=`,
// every other family with negated edges.
std::vector<Pattern> Patterns(const Graph& g, uint64_t seed) {
  std::vector<Pattern> out;
  PatternGenConfig numeric;
  numeric.num_nodes = 4;
  numeric.num_edges = 4;
  numeric.num_quantified = 1;
  numeric.kind = QuantKind::kNumeric;
  numeric.count = 2;
  numeric.num_negated = 1;
  PatternGenConfig ratio = numeric;
  ratio.kind = QuantKind::kRatio;
  ratio.percent = 40.0;
  ratio.num_quantified = 2;
  ratio.num_negated = 0;
  PatternGenConfig numeric_eq = numeric;
  numeric_eq.op = QuantOp::kEq;
  numeric_eq.num_negated = 0;
  PatternGenConfig ratio_eq = ratio;
  ratio_eq.op = QuantOp::kEq;
  ratio_eq.percent = 50.0;
  ratio_eq.num_negated = 1;
  uint64_t s = seed;
  for (const PatternGenConfig* pc : {&numeric, &ratio, &numeric_eq, &ratio_eq}) {
    for (Pattern& p : GeneratePatternSuite(g, 6, *pc, s++)) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

// Every third vertex left out: a subset that mixes focus candidates with
// vertices of other labels.
std::vector<VertexId> FocusSubset(const Graph& g) {
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 3 != 0) subset.push_back(v);
  }
  return subset;
}

std::string OptionsName(const MatchOptions& o) {
  return std::string("pruning=") + (o.use_quantifier_pruning ? "1" : "0") +
         " early_stop=" + (o.early_stop_counting ? "1" : "0") +
         " potential=" + (o.use_potential_ordering ? "1" : "0") +
         " incremental=" + (o.use_incremental_negation ? "1" : "0");
}

// Runs every switch combination against the oracle. `compared` receives
// the number of patterns the oracle finished, `answered` those of them
// with a nonempty answer set.
void CompareAllCombinations(const Graph& g,
                            const std::vector<Pattern>& patterns,
                            size_t* compared, size_t* answered) {
  const std::vector<VertexId> subset = FocusSubset(g);
  MatchOptions naive_options;
  naive_options.max_isomorphisms = 3'000'000;
  *compared = 0;
  *answered = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& q = patterns[i];
    SCOPED_TRACE("pattern " + std::to_string(i) + ":\n" +
                 q.ToString(&g.dict()));
    auto oracle = NaiveMatcher::Evaluate(q, g, naive_options);
    if (!oracle.ok()) continue;  // oracle overflow: skip, do not fail
    AnswerSet oracle_subset;
    for (VertexId v : *oracle) {
      if (v % 3 != 0) oracle_subset.push_back(v);
    }
    ++*compared;
    if (!oracle->empty()) ++*answered;
    for (int bits = 0; bits < 16; ++bits) {
      MatchOptions o;
      o.use_quantifier_pruning = (bits & 1) != 0;
      o.early_stop_counting = (bits & 2) != 0;
      o.use_potential_ordering = (bits & 4) != 0;
      o.use_incremental_negation = (bits & 8) != 0;
      SCOPED_TRACE(OptionsName(o));
      auto full = QMatch::Evaluate(q, g, o);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_EQ(*full, *oracle) << "full focus set disagrees";
      auto part = QMatch::EvaluateSubset(q, g, subset, o, nullptr);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      EXPECT_EQ(*part, oracle_subset) << "focus subset disagrees";
    }
  }
}

TEST(VerifyOptionsDifferentialTest, SocialGraphAgreesWithNaive) {
  const Graph g = SmallSocialGraph();
  const std::vector<Pattern> patterns = Patterns(g, 41);
  ASSERT_GE(patterns.size(), 16u);
  size_t compared = 0;
  size_t answered = 0;
  CompareAllCombinations(g, patterns, &compared, &answered);
  EXPECT_GE(compared, 16u);
  EXPECT_GE(answered, 6u);
}

TEST(VerifyOptionsDifferentialTest, KnowledgeGraphAgreesWithNaive) {
  const Graph g = SmallKnowledgeGraph();
  const std::vector<Pattern> patterns = Patterns(g, 43);
  ASSERT_GE(patterns.size(), 16u);
  size_t compared = 0;
  size_t answered = 0;
  CompareAllCombinations(g, patterns, &compared, &answered);
  EXPECT_GE(compared, 16u);
  EXPECT_GE(answered, 6u);
}

TEST(VerifyOptionsDifferentialTest, CountedChildNeedNotSatisfyItsOwnQuantifier) {
  // x1 has two e-children: y1 with two f-children and y2 with one. Both
  // lie on an embedding of the stratified pattern, so both count for
  // x1's `>= 2` and `= 100%`, though only y1 meets y's own `>= 2` and
  // y2 is outside good(y). x2's one e-child, y3, meets y's threshold
  // but not x's `>= 2`; it is all of x2's e-children, so x2 meets
  // `= 100%`.
  GraphBuilder b;
  b.AddVertex("p");  // 0: unused, so the answer lies in the focus subset
  const VertexId x1 = b.AddVertex("p");
  const VertexId x2 = b.AddVertex("p");
  const VertexId y1 = b.AddVertex("q");
  const VertexId y2 = b.AddVertex("q");
  const VertexId y3 = b.AddVertex("q");
  std::vector<VertexId> z;
  for (int i = 0; i < 6; ++i) z.push_back(b.AddVertex("r"));
  ASSERT_TRUE(b.AddEdge(x1, y1, "e").ok());
  ASSERT_TRUE(b.AddEdge(x1, y2, "e").ok());
  ASSERT_TRUE(b.AddEdge(x2, y3, "e").ok());
  ASSERT_TRUE(b.AddEdge(y1, z[0], "f").ok());
  ASSERT_TRUE(b.AddEdge(y1, z[1], "f").ok());
  ASSERT_TRUE(b.AddEdge(y2, z[2], "f").ok());
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(b.AddEdge(y3, z[i], "f").ok());
  Graph g = std::move(b).Build().value();
  const std::pair<const char*, AnswerSet> cases[] = {
      {"node x p\nnode y q\nnode z r\nedge x y e >=2\nedge y z f >=2\n"
       "focus x\n",
       {x1}},
      {"node x p\nnode y q\nnode z r\nedge x y e =100%\n"
       "edge y z f >=2\nfocus x\n",
       {x1, x2}},
  };
  std::vector<Pattern> patterns;
  for (const auto& [text, expected] : cases) {
    auto q = PatternParser::Parse(text, g.mutable_dict());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto answers = QMatch::Evaluate(*q, g);
    ASSERT_TRUE(answers.ok());
    EXPECT_EQ(*answers, expected) << text;
    patterns.push_back(std::move(q).value());
  }
  size_t compared = 0;
  size_t answered = 0;
  CompareAllCombinations(g, patterns, &compared, &answered);
  EXPECT_EQ(compared, 2u);
  EXPECT_EQ(answered, 2u);
}

}  // namespace
}  // namespace qgp
