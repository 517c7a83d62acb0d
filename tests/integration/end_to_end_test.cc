// Full-pipeline integration tests: generate realistic graphs, parse
// patterns from text, match sequentially and in parallel, mine rules,
// and cross-check every stage against the others.
#include <gtest/gtest.h>

#include <sstream>

#include "core/pattern_parser.h"
#include "core/qmatch.h"
#include "gen/knowledge_gen.h"
#include "gen/social_gen.h"
#include "graph/graph_io.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"
#include "parallel/pqmatch.h"
#include "qgar/gar_match.h"
#include "qgar/miner.h"

namespace qgp {
namespace {

TEST(EndToEndTest, SocialMarketingPipeline) {
  // 1. Generate a social graph.
  SocialConfig sc;
  sc.num_users = 1000;
  sc.community_size = 125;
  Graph g = std::move(GenerateSocialGraph(sc)).value();

  // 2. Author the paper's Q1-style antecedent in the text syntax.
  auto pattern = PatternParser::Parse(R"(
      node xo person
      node c  club
      node z  person
      node y  album
      edge xo c in
      edge xo z follow >=60%
      edge z  y like
      focus xo
  )",
                                      g.mutable_dict());
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  ASSERT_TRUE(pattern->Validate().ok());

  // 3. Sequential matching finds potential customers.
  MatchStats stats;
  auto customers = QMatch::Evaluate(*pattern, g, {}, &stats);
  ASSERT_TRUE(customers.ok());
  EXPECT_FALSE(customers.value().empty());
  EXPECT_GT(stats.focus_candidates_checked, 0u);

  // 4. Partition + parallel matching agree exactly.
  DParConfig dc;
  dc.num_fragments = 4;
  dc.d = pattern->Radius();
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  ASSERT_TRUE(part->Validate(g).ok());
  ParallelConfig pc;
  auto parallel = PQMatch::Evaluate(*pattern, *part, pc);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->answers, customers.value());
  auto penum = PEnum::Evaluate(*pattern, *part, pc);
  ASSERT_TRUE(penum.ok());
  EXPECT_EQ(penum->answers, customers.value());
}

TEST(EndToEndTest, KnowledgeDiscoveryPipeline) {
  KnowledgeConfig kc;
  kc.num_scientists = 1500;
  Graph g = std::move(GenerateKnowledgeGraph(kc)).value();

  // Q4-style query with negation, parsed from text.
  auto q4 = PatternParser::Parse(R"(
      node xo  scientist
      node t   prof_title
      node z   scientist
      node phd phd_degree
      edge xo t  is_a
      edge xo z  advisor >=2
      edge z  t  is_a
      edge xo phd has_degree =0
      focus xo
  )",
                                 g.mutable_dict());
  ASSERT_TRUE(q4.ok()) << q4.status().ToString();

  auto inc = QMatch::Evaluate(*q4, g);
  MatchOptions full_options;
  full_options.use_incremental_negation = false;
  auto full = QMatch::Evaluate(*q4, g, full_options);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(inc.value(), full.value());
  // Negation holds on every answer.
  Label has_degree = g.dict().Find("has_degree");
  for (VertexId v : inc.value()) {
    EXPECT_EQ(g.OutDegreeWithLabel(v, has_degree), 0u);
  }
}

TEST(EndToEndTest, GraphSerializationPreservesAnswers) {
  SocialConfig sc;
  sc.num_users = 300;
  Graph g = std::move(GenerateSocialGraph(sc)).value();
  auto pattern = PatternParser::Parse(
      "node xo person\nnode z person\nedge xo z follow >=2\nfocus xo\n",
      g.mutable_dict());
  ASSERT_TRUE(pattern.ok());
  auto before = QMatch::Evaluate(*pattern, g);
  ASSERT_TRUE(before.ok());

  std::ostringstream buffer;
  ASSERT_TRUE(GraphIo::Write(g, buffer).ok());
  std::istringstream in(buffer.str());
  auto reloaded = GraphIo::Read(in);
  ASSERT_TRUE(reloaded.ok());
  auto pattern2 = PatternParser::Parse(
      "node xo person\nnode z person\nedge xo z follow >=2\nfocus xo\n",
      reloaded->mutable_dict());
  ASSERT_TRUE(pattern2.ok());
  auto after = QMatch::Evaluate(*pattern2, *reloaded);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
}

TEST(EndToEndTest, MinedRulesIdentifyEntitiesInParallel) {
  SocialConfig sc;
  sc.num_users = 600;
  sc.community_size = 100;
  Graph g = std::move(GenerateSocialGraph(sc)).value();

  MinerConfig mc;
  mc.min_confidence = 0.4;
  mc.min_support = 5;
  mc.max_rules = 2;
  mc.max_evaluations = 30;
  auto rules = MineQgars(g, mc);
  ASSERT_TRUE(rules.ok());
  if (rules->empty()) GTEST_SKIP() << "no rules mined at this scale";

  int max_radius = 0;
  for (const MinedRule& r : *rules) {
    max_radius = std::max({max_radius, r.rule.antecedent.Radius(),
                           r.rule.consequent.Radius()});
  }
  DParConfig dc;
  dc.num_fragments = 3;
  dc.d = max_radius;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  for (const MinedRule& r : *rules) {
    auto seq = GarMatch(r.rule, g, mc.min_confidence);
    auto par = DGarMatch(r.rule, g, *part, mc.min_confidence);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(seq->entities, par->entities);
    EXPECT_FALSE(seq->entities.empty());
  }
}

}  // namespace
}  // namespace qgp
