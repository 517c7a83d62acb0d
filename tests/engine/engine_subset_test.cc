// EngineOptions::focus_subset — the restriction that turns a QueryEngine
// into a shard. Contract under test, for every algo family:
//
//   Submit(spec) on an engine with focus_subset S ==
//       SetIntersection(Submit(spec) on the full engine, S)
//
// and the same restriction holds for the Enum and PEnum baselines,
// called directly: their answers intersected with S equal the subset
// engine's. Plus the subset lifecycle: an engaged-but-EMPTY subset answers
// nothing (it owns nothing — never "all", which is what an empty span
// means further down the matcher stack); out-of-range ids are dropped
// at construction; ApplyDelta(delta, own) atomically extends the subset
// with newly-owned post-delta ids; and the own-extension overload is
// rejected on engines it cannot apply to.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/enum_matcher.h"
#include "core/pattern_parser.h"
#include "core/qmatch.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 50;
  gc.num_edges = 150;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

TEST(EngineSubsetTest, EveryAlgoRestrictsToTheSubset) {
  Graph g = MakeGraph(61);
  // Every other vertex: exercises both "focus in subset" and "focus
  // outside subset" for any pattern with spread-out answers.
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) subset.push_back(v);

  EngineOptions full_opts;
  full_opts.num_threads = 2;
  QueryEngine full(&g, full_opts);
  EngineOptions sub_opts = full_opts;
  sub_opts.focus_subset = subset;
  QueryEngine restricted(g, sub_opts);

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = 1;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 8, pc, 7);
  ASSERT_FALSE(suite.empty());

  // The second row is the QMatchn baseline: qmatch without incremental
  // negation.
  struct Matcher {
    EngineAlgo algo;
    bool incremental_negation;
  };
  const Matcher matchers[] = {{EngineAlgo::kQMatch, true},
                              {EngineAlgo::kQMatch, false},
                              {EngineAlgo::kPQMatch, true},
                              {EngineAlgo::kAuto, true}};
  // The baselines' reference: the partition the engines build lazily.
  DParConfig dpc;
  dpc.num_fragments = full_opts.partition_fragments;
  dpc.d = full_opts.partition_d;
  auto partition = DPar(g, dpc);
  ASSERT_TRUE(partition.ok());
  ParallelConfig capped;
  capped.match.max_isomorphisms = 2'000'000;
  size_t compared = 0;
  size_t baselines_compared = 0;
  for (const Pattern& p : suite) {
    if (p.Radius() > 2) continue;  // parallel families' partition depth
    std::optional<AnswerSet> owned;
    for (const Matcher& m : matchers) {
      QuerySpec spec;
      spec.pattern = p;
      spec.algo = m.algo;
      spec.options.use_incremental_negation = m.incremental_negation;
      const std::string context = std::string(EngineAlgoName(m.algo)) +
                                  (m.incremental_negation ? "" : " naive");
      auto want = full.Submit(spec);
      auto got = restricted.Submit(spec);
      ASSERT_EQ(got.ok(), want.ok()) << context;
      if (!got.ok()) continue;
      EXPECT_EQ(got->answers, SetIntersection(want->answers, subset))
          << context;
      owned = got->answers;
      ++compared;
    }
    auto enumerated =
        EnumMatcher::Evaluate(p, g, capped.match, nullptr, nullptr, subset);
    auto penum = PEnum::Evaluate(p, *partition, capped);
    if (!owned || !enumerated.ok() || !penum.ok()) continue;  // cap tripped
    EXPECT_EQ(*enumerated, *owned) << "Enum over the subset";
    EXPECT_EQ(SetIntersection(penum->answers, subset), *owned) << "PEnum";
    ++baselines_compared;
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(baselines_compared, 0u);
}

// With incremental negation off, every pass of a subset engine verifies
// only the subset's focus candidates: the Π(Q) pass, and each Π(Q⁺ᵉ)
// pass, whose verdicts outside the subset would be thrown away. The
// expected count is rebuilt pass by pass from positive evaluations over
// the subset; `spill` counts the passes whose focus candidates reach
// outside the subset, where verifying them all would show.
TEST(EngineSubsetTest, RecomputedNegationChecksOwnedFociOnly) {
  Graph g = MakeGraph(61);
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) subset.push_back(v);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.focus_subset = subset;
  QueryEngine restricted(g, opts);

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = 1;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 8, pc, 7);
  ASSERT_FALSE(suite.empty());

  MatchOptions positive_opts;
  size_t spill = 0;
  for (const Pattern& p : suite) {
    QuerySpec spec;
    spec.pattern = p;
    spec.algo = EngineAlgo::kQMatch;
    spec.options.use_incremental_negation = false;
    auto got = restricted.Submit(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    spec.options.use_incremental_negation = true;
    auto incremental = restricted.Submit(spec);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(got->answers, incremental->answers);

    auto pi = p.Pi();
    ASSERT_TRUE(pi.ok());
    MatchStats want;
    auto answers =
        QMatch::EvaluateSubset(pi->first, g, subset, positive_opts, &want);
    ASSERT_TRUE(answers.ok());
    for (PatternEdgeId e : p.NegatedEdgeIds()) {
      if (answers->empty()) break;
      auto positified = p.Positify(e);
      ASSERT_TRUE(positified.ok());
      auto pi_pos = positified->Pi();
      ASSERT_TRUE(pi_pos.ok());
      MatchStats pass;
      auto negative = QMatch::EvaluateSubset(pi_pos->first, g, subset,
                                             positive_opts, &pass);
      ASSERT_TRUE(negative.ok());
      MatchStats everywhere;
      ASSERT_TRUE(
          QMatch::Evaluate(pi_pos->first, g, positive_opts, &everywhere)
              .ok());
      if (everywhere.focus_candidates_checked >
          pass.focus_candidates_checked) {
        ++spill;
      }
      want.Add(pass);
      *answers = SetDifference(*answers, *negative);
    }
    EXPECT_EQ(got->answers, *answers);
    EXPECT_EQ(got->stats.focus_candidates_checked,
              want.focus_candidates_checked);
  }
  EXPECT_GT(spill, 0u);
}

TEST(EngineSubsetTest, EngagedEmptySubsetAnswersNothing) {
  Graph g = MakeGraph(62);
  EngineOptions opts;
  opts.num_threads = 1;
  opts.focus_subset.emplace();  // engaged AND empty: owns nothing
  QueryEngine engine(g, opts);

  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 2;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 4, pc, 3);
  ASSERT_FALSE(suite.empty());
  for (EngineAlgo algo :
       {EngineAlgo::kQMatch, EngineAlgo::kPQMatch, EngineAlgo::kAuto}) {
    QuerySpec spec;
    spec.pattern = suite[0];
    spec.algo = algo;
    auto out = engine.Submit(spec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->answers.empty()) << EngineAlgoName(algo);
  }

  // Invalid patterns still fail validation — the short-circuit answers
  // empty only for queries that would have been accepted.
  QuerySpec bad;
  bad.pattern = Pattern{};  // no nodes, no focus
  EXPECT_FALSE(engine.Submit(bad).ok());
}

TEST(EngineSubsetTest, OutOfRangeAndDuplicateIdsDropAtConstruction) {
  Graph g = MakeGraph(63);
  std::vector<VertexId> clean = {4, 8, 12};
  EngineOptions messy_opts;
  messy_opts.num_threads = 1;
  messy_opts.focus_subset = std::vector<VertexId>{
      12, 4, 8, 4, static_cast<VertexId>(g.num_vertices() + 100)};
  QueryEngine messy(g, messy_opts);
  EngineOptions clean_opts;
  clean_opts.num_threads = 1;
  clean_opts.focus_subset = clean;
  QueryEngine reference(g, clean_opts);

  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 2;
  for (Pattern& p : GeneratePatternSuite(g, 4, pc, 5)) {
    QuerySpec spec;
    spec.pattern = std::move(p);
    auto a = messy.Submit(spec);
    auto b = reference.Submit(spec);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a->answers, b->answers);
    }
  }
}

// A pinned micro-graph where ownership visibly gates answers, so the
// own-extension of ApplyDelta is observable end to end.
class SubsetDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder b;
    p0_ = b.AddVertex("person");
    p1_ = b.AddVertex("person");
    product_ = b.AddVertex("product");
    (void)b.AddEdge(p0_, product_, "buys");
    (void)b.AddEdge(p1_, product_, "buys");
    graph_ = std::move(std::move(b).Build()).value();
    pattern_text_ = "node x person\nnode y product\nedge x y buys\nfocus x\n";
  }

  // Every label the pattern names is already interned in the fixture
  // graph, so parsing against a dict snapshot yields ids valid for the
  // engine (nothing new is interned).
  Pattern ParseFor(const QueryEngine& engine) {
    LabelDict dict = engine.DictSnapshot();
    return std::move(PatternParser::Parse(pattern_text_, dict)).value();
  }

  Graph graph_;
  VertexId p0_ = 0, p1_ = 0, product_ = 0;
  std::string pattern_text_;
};

TEST_F(SubsetDeltaTest, ApplyDeltaOwnExtendsTheSubset) {
  EngineOptions opts;
  opts.num_threads = 1;
  opts.focus_subset = std::vector<VertexId>{p0_};
  QueryEngine engine(graph_, opts);
  QuerySpec spec;
  spec.pattern = ParseFor(engine);

  auto before = engine.Submit(spec);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->answers, (AnswerSet{p0_}));  // p1 matches but is unowned

  // New person buys the product; the coordinator assigns it to us.
  NamedGraphDelta delta;
  delta.add_vertices.push_back("person");
  const VertexId p2 = graph_.num_vertices();  // owning engine copied graph_
  delta.add_edges.push_back({p2, product_, "buys"});
  auto applied = engine.ApplyDelta(delta, std::vector<VertexId>{p2});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  auto after = engine.Submit(spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->answers, (AnswerSet{p0_, p2}));  // p1 still unowned
}

TEST_F(SubsetDeltaTest, OwnValidationFailureIsAtomic) {
  EngineOptions opts;
  opts.num_threads = 1;
  opts.focus_subset = std::vector<VertexId>{p0_};
  QueryEngine engine(graph_, opts);
  const uint64_t version_before = engine.graph_version();

  NamedGraphDelta delta;
  delta.add_vertices.push_back("person");
  // Out of range even after the one added vertex: rejected before the
  // delta touches the graph or the subset.
  auto applied = engine.ApplyDelta(
      delta, std::vector<VertexId>{static_cast<VertexId>(
                 graph_.num_vertices() + 5)});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.graph_version(), version_before);

  QuerySpec spec;
  spec.pattern = ParseFor(engine);
  auto out = engine.Submit(spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->answers, (AnswerSet{p0_}));
}

TEST_F(SubsetDeltaTest, OwnRejectedWithoutAnEngagedSubset) {
  QueryEngine engine(graph_);  // owning, but no focus subset
  NamedGraphDelta delta;
  delta.add_vertices.push_back("person");
  auto applied = engine.ApplyDelta(delta, std::vector<VertexId>{0});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SubsetDeltaTest, OwnRejectedOnBorrowingEngine) {
  EngineOptions opts;
  opts.focus_subset = std::vector<VertexId>{p0_};
  QueryEngine engine(&graph_, opts);  // borrows: cannot mutate the graph
  NamedGraphDelta delta;
  delta.add_vertices.push_back("person");
  auto applied = engine.ApplyDelta(delta, std::vector<VertexId>{0});
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qgp
