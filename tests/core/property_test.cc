// Oracle property sweeps: on randomly generated small graphs and
// generated quantified patterns, every optimized matcher must agree with
// the brute-force NaiveMatcher implementation of the §2.2 semantics.
#include <gtest/gtest.h>

#include <sstream>

#include "core/enum_matcher.h"
#include "core/naive_matcher.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"

namespace qgp {
namespace {

struct PropertyCase {
  std::string name;
  SyntheticConfig graph;
  PatternGenConfig pattern;
  size_t num_patterns = 5;
  uint64_t seed = 99;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
  return os << c.name;
}

PropertyCase MakeCase(std::string name, SyntheticConfig::Model model,
                      QuantKind kind, QuantOp op, size_t negated,
                      size_t quantified, uint64_t seed) {
  PropertyCase c;
  c.name = std::move(name);
  c.graph.num_vertices = 48;
  c.graph.num_edges = 140;
  c.graph.num_node_labels = 6;
  c.graph.num_edge_labels = 3;
  c.graph.model = model;
  c.graph.seed = seed;
  c.pattern.num_nodes = 4;
  c.pattern.num_edges = 4;
  c.pattern.num_quantified = quantified;
  c.pattern.kind = kind;
  c.pattern.op = op;
  c.pattern.percent = 50.0;
  c.pattern.count = 2;
  c.pattern.num_negated = negated;
  c.seed = seed * 31 + 7;
  return c;
}

class OracleAgreementTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(OracleAgreementTest, AllMatchersAgreeWithNaive) {
  const PropertyCase& c = GetParam();
  auto graph = GenerateSynthetic(c.graph);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const Graph& g = *graph;

  std::vector<Pattern> patterns =
      GeneratePatternSuite(g, c.num_patterns, c.pattern, c.seed);
  ASSERT_FALSE(patterns.empty())
      << "pattern generator produced nothing for " << c.name;

  MatchOptions naive_opts;
  naive_opts.max_isomorphisms = 3'000'000;
  size_t checked = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& q = patterns[i];
    SCOPED_TRACE("pattern " + std::to_string(i) + ":\n" +
                 q.ToString(&g.dict()));
    auto oracle = NaiveMatcher::Evaluate(q, g, naive_opts);
    if (!oracle.ok()) continue;  // oracle overflow: skip, do not fail
    ++checked;

    auto qm = QMatch::Evaluate(q, g);
    ASSERT_TRUE(qm.ok()) << qm.status().ToString();
    EXPECT_EQ(qm.value(), oracle.value()) << "QMatch disagrees";

    MatchOptions qmn_options;
    qmn_options.use_incremental_negation = false;
    auto qmn = QMatch::Evaluate(q, g, qmn_options);
    ASSERT_TRUE(qmn.ok()) << qmn.status().ToString();
    EXPECT_EQ(qmn.value(), oracle.value()) << "QMatchn disagrees";

    auto en = EnumMatcher::Evaluate(q, g);
    ASSERT_TRUE(en.ok()) << en.status().ToString();
    EXPECT_EQ(en.value(), oracle.value()) << "Enum disagrees";

    // Strategy toggles must not change answers either.
    MatchOptions stripped;
    stripped.use_simulation = false;
    stripped.use_quantifier_pruning = false;
    stripped.use_potential_ordering = false;
    stripped.early_stop_counting = false;
    auto bare = QMatch::Evaluate(q, g, stripped);
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.value(), oracle.value()) << "unoptimized QMatch disagrees";
  }
  EXPECT_GT(checked, 0u) << "every oracle run overflowed";
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  uint64_t seed = 1;
  for (auto model : {SyntheticConfig::Model::kSmallWorld,
                     SyntheticConfig::Model::kPowerLaw}) {
    const char* mname =
        model == SyntheticConfig::Model::kSmallWorld ? "sw" : "pl";
    for (auto kind : {QuantKind::kRatio, QuantKind::kNumeric}) {
      const char* kname = kind == QuantKind::kRatio ? "ratio" : "numeric";
      for (auto op : {QuantOp::kGe, QuantOp::kEq}) {
        const char* oname = op == QuantOp::kGe ? "ge" : "eq";
        for (size_t negated : {0u, 1u, 2u}) {
          std::ostringstream name;
          name << mname << "_" << kname << "_" << oname << "_neg"
               << negated;
          cases.push_back(MakeCase(name.str(), model, kind, op, negated,
                                   /*quantified=*/negated == 2 ? 1 : 2,
                                   ++seed));
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleAgreementTest,
                         ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& i) {
                           return i.param.name;
                         });

// Metamorphic property (Lemma 10 anti-monotonicity, quantifier side):
// raising a positive numeric threshold never adds answers.
TEST(MetamorphicTest, RaisingThresholdShrinksAnswers) {
  SyntheticConfig gc;
  gc.num_vertices = 60;
  gc.num_edges = 220;
  gc.num_node_labels = 5;
  gc.num_edge_labels = 3;
  gc.seed = 77;
  auto graph = GenerateSynthetic(gc);
  ASSERT_TRUE(graph.ok());
  const Graph& g = *graph;

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.kind = QuantKind::kNumeric;
  pc.count = 1;
  pc.num_negated = 0;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 4, pc, 5);
  ASSERT_FALSE(patterns.empty());

  for (const Pattern& base : patterns) {
    AnswerSet previous;
    bool first = true;
    for (uint32_t p = 1; p <= 4; ++p) {
      // Rebuild with threshold p on every quantified edge.
      Pattern q;
      for (PatternNodeId u = 0; u < base.num_nodes(); ++u) {
        q.AddNode(base.node(u).label, base.node(u).name);
      }
      for (PatternEdgeId e = 0; e < base.num_edges(); ++e) {
        const PatternEdge& pe = base.edge(e);
        Quantifier quant = pe.quantifier;
        if (!quant.IsExistential() && !quant.IsNegation()) {
          quant = Quantifier::Numeric(QuantOp::kGe, p);
        }
        ASSERT_TRUE(q.AddEdge(pe.src, pe.dst, pe.label, quant).ok());
      }
      ASSERT_TRUE(q.set_focus(base.focus()).ok());
      auto answers = QMatch::Evaluate(q, g);
      ASSERT_TRUE(answers.ok());
      if (!first) {
        EXPECT_EQ(SetIntersection(answers.value(), previous),
                  answers.value())
            << "answers grew when the threshold rose to " << p;
      }
      previous = answers.value();
      first = false;
    }
  }
}

// Metamorphic property: Π(Q⁺ᵉ)(xo, G) ⊆ Π(Q)(xo, G) for >= quantifiers
// (adding constraints removes answers).
TEST(MetamorphicTest, PositifiedSubsetOfPi) {
  SyntheticConfig gc;
  gc.num_vertices = 60;
  gc.num_edges = 200;
  gc.num_node_labels = 5;
  gc.num_edge_labels = 3;
  gc.seed = 101;
  auto graph = GenerateSynthetic(gc);
  ASSERT_TRUE(graph.ok());
  const Graph& g = *graph;

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.kind = QuantKind::kRatio;
  pc.op = QuantOp::kGe;
  pc.percent = 40.0;
  pc.num_negated = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 5, pc, 9);
  ASSERT_FALSE(patterns.empty());
  for (const Pattern& q : patterns) {
    auto pi = q.Pi();
    ASSERT_TRUE(pi.ok());
    auto a0 = NaiveMatcher::EvaluatePositive(pi.value().first, g, 0);
    if (!a0.ok()) continue;
    for (PatternEdgeId e : q.NegatedEdgeIds()) {
      auto positified = q.Positify(e);
      ASSERT_TRUE(positified.ok());
      auto pi_pos = positified.value().Pi();
      ASSERT_TRUE(pi_pos.ok());
      auto ae = NaiveMatcher::EvaluatePositive(pi_pos.value().first, g, 0);
      if (!ae.ok()) continue;
      EXPECT_EQ(SetIntersection(ae.value(), a0.value()), ae.value())
          << "positified answers not contained in Pi answers";
    }
  }
}

}  // namespace
}  // namespace qgp
