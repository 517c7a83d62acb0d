// algo = auto suite. The headline differential asserts that an auto
// query is ANSWER- and MATCHSTATS-identical to submitting the resolved
// algorithm manually, at thread counts {1, 2, 4, 8} — auto may change
// the schedule but never the work. The rest pins the one rule (pqmatch
// for a positive pattern when partitioning pays, else qmatch) on
// hand-built graphs, checks the answers against the Enum and PEnum
// baselines called directly, and pins the effective-algo result-cache
// keying.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/enum_matcher.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"
#include "parallel/penum.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

Graph MakeSynthetic(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 60;
  gc.num_edges = 170;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.model = (seed % 2 == 0) ? SyntheticConfig::Model::kSmallWorld
                             : SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

// A graph whose "user" label has exactly 4 vertices and whose "page"
// label has 30, so focus counts are pinned rather than sampled.
Graph MakeTinyFocusGraph() {
  GraphBuilder b;
  std::vector<VertexId> users, pages;
  for (int i = 0; i < 4; ++i) users.push_back(b.AddVertex("user"));
  for (int i = 0; i < 30; ++i) pages.push_back(b.AddVertex("page"));
  for (size_t u = 0; u < users.size(); ++u) {
    for (size_t p = 0; p < pages.size(); ++p) {
      if ((u + p) % 3 == 0) {
        EXPECT_TRUE(b.AddEdge(users[u], pages[p], "visits").ok());
      }
    }
  }
  return std::move(b).Build().value();
}

// user -visits-> page with a configurable quantifier on the edge,
// focused on the user: the miner's WithPercent enlargement shape.
Pattern UserPattern(const Quantifier& quant) {
  Pattern q;
  PatternNodeId user = q.AddNode(0, "user");  // labels interned in order
  PatternNodeId page = q.AddNode(1, "page");
  (void)q.AddEdge(user, page, 2, quant);  // "visits"
  (void)q.set_focus(user);
  return q;
}

// ---------------------------------------------------------------------
// The differential: auto ≡ the manually submitted plan

// Submit every pattern under algo = auto, read back the resolved
// algorithm, then run the identical spec with that algorithm requested
// explicitly on a fresh engine. Answers and work counters must match
// exactly at every thread count — auto is a routing decision, never a
// semantic one. Negated patterns also run as the QMatchn baseline
// (use_incremental_negation = false), which the plan passes through.
TEST(PlannerDifferential, AutoMatchesManualChoiceAtAllThreadCounts) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = MakeSynthetic(seed);
    PatternGenConfig pc;
    pc.num_nodes = 4;
    pc.num_edges = 4;
    pc.num_quantified = 1;
    pc.num_negated = seed % 2;
    std::vector<Pattern> suite = GeneratePatternSuite(g, 5, pc, seed * 13 + 1);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions opts;
      opts.num_threads = threads;
      QueryEngine auto_engine(&g, opts);
      QueryEngine manual_engine(&g, opts);
      for (size_t i = 0; i < suite.size(); ++i) {
        for (bool incremental : {true, false}) {
          if (!incremental && suite[i].IsPositive()) continue;
          QuerySpec spec;
          spec.pattern = suite[i];
          spec.algo = EngineAlgo::kAuto;
          spec.options.use_incremental_negation = incremental;
          spec.tag = "q" + std::to_string(i) + (incremental ? "" : " naive");
          auto planned = auto_engine.Submit(spec);
          ASSERT_TRUE(planned.ok()) << planned.status().ToString();
          ASSERT_NE(planned->algo, EngineAlgo::kAuto)
              << "auto must resolve to a concrete matcher";

          spec.algo = planned->algo;
          auto manual = manual_engine.Submit(spec);
          ASSERT_TRUE(manual.ok()) << manual.status().ToString();
          const std::string context =
              "seed " + std::to_string(seed) + " t" + std::to_string(threads) +
              " " + spec.tag + " (" + EngineAlgoName(planned->algo) + ")";
          EXPECT_EQ(planned->answers, manual->answers) << context;
          testing::ExpectSameWork(planned->stats, manual->stats, context);
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 60u) << "suite lost its volume; widen the seeds";
}

// ---------------------------------------------------------------------
// Decision boundaries (hand-built graph, pinned cutoffs)

TEST(PlannerDecisions, TinyFocusConventionalPlansToQMatch) {
  Graph g = MakeTinyFocusGraph();
  QueryEngine engine(&g);
  // 4 "user" foci and no counting quantifier: still QMatch, and the
  // answers are the Enum baseline's.
  QuerySpec spec;
  spec.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  spec.algo = EngineAlgo::kAuto;
  QuerySpec wide = spec;  // focused on "page": 30 candidates
  (void)wide.pattern.set_focus(1);
  QuerySpec counting = spec;
  counting.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 2));
  for (const QuerySpec* s : {&spec, &wide, &counting}) {
    auto outcome = engine.Submit(*s);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->algo, EngineAlgo::kQMatch);
    auto enumerated = EnumMatcher::Evaluate(s->pattern, g);
    ASSERT_TRUE(enumerated.ok());
    EXPECT_EQ(outcome->answers, *enumerated);
  }
}

TEST(PlannerDecisions, NegatedPatternsPlanToQmatchAndRespectOptions) {
  Graph g = MakeTinyFocusGraph();
  QueryEngine engine(&g);
  QuerySpec spec;
  spec.pattern = UserPattern(Quantifier::Negation());
  spec.algo = EngineAlgo::kAuto;
  auto outcome = engine.Submit(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->algo, EngineAlgo::kQMatch);

  // Incremental negation disabled: the flag passes through, so the
  // effective algorithm is qmatch running as the QMatchn baseline.
  spec.options.use_incremental_negation = false;
  auto naive = engine.Submit(spec);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->algo, EngineAlgo::kQMatch);
  EXPECT_EQ(naive->answers, outcome->answers);
}

TEST(PlannerDecisions, PartitionCutoffRoutesToParallelAlgos) {
  Graph g = MakeTinyFocusGraph();
  EngineOptions opts;
  // Force "this graph is big enough to shard" so the partition branch is
  // exercised without a 200k-vertex fixture.
  opts.partition_vertex_cutoff = 1;
  QueryEngine engine(&g, opts);
  EngineOptions serial_opts;
  QueryEngine serial(&g, serial_opts);
  auto partition = engine.partition();
  ASSERT_TRUE(partition.ok());

  // Positive patterns, counting or not, go fragment-parallel, answer like
  // the serial pick and like the PEnum baseline over the same partition.
  for (const Quantifier& quant : {Quantifier::Numeric(QuantOp::kGe, 2),
                                  Quantifier::Numeric(QuantOp::kGe, 1)}) {
    QuerySpec spec;
    spec.pattern = UserPattern(quant);
    spec.algo = EngineAlgo::kAuto;
    auto parallel = engine.Submit(spec);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->algo, EngineAlgo::kPQMatch);
    auto serial_outcome = serial.Submit(spec);
    ASSERT_TRUE(serial_outcome.ok());
    EXPECT_EQ(serial_outcome->algo, EngineAlgo::kQMatch);
    EXPECT_EQ(parallel->answers, serial_outcome->answers);
    auto penum = PEnum::Evaluate(spec.pattern, **partition, ParallelConfig{});
    ASSERT_TRUE(penum.ok());
    EXPECT_EQ(parallel->answers, penum->answers);
  }

  // Negated patterns, a single fragment, or a radius past the
  // partition's depth keep QMatch.
  QuerySpec negated;
  negated.pattern = UserPattern(Quantifier::Negation());
  negated.algo = EngineAlgo::kAuto;
  auto negated_outcome = engine.Submit(negated);
  ASSERT_TRUE(negated_outcome.ok());
  EXPECT_EQ(negated_outcome->algo, EngineAlgo::kQMatch);
  QuerySpec positive = negated;
  positive.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  EngineOptions one_fragment = opts;
  one_fragment.partition_fragments = 1;
  EngineOptions shallow = opts;
  shallow.partition_d = 0;
  for (const EngineOptions& narrowed : {one_fragment, shallow}) {
    QueryEngine narrow_engine(&g, narrowed);
    auto outcome = narrow_engine.Submit(positive);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->algo, EngineAlgo::kQMatch);
  }
}

TEST(PlannerDecisions, QuantifierVariantsPlanAlike) {
  Graph g = MakeTinyFocusGraph();
  QueryEngine engine(&g);
  // The miner's enlargement loop: ratio 30 → 100 in steps of 10. Only
  // the quantifier's parameter moves, so every variant plans alike.
  std::vector<EngineAlgo> chosen;
  for (double p = 30.0; p <= 100.0; p += 10.0) {
    QuerySpec spec;
    spec.pattern = UserPattern(Quantifier::Ratio(QuantOp::kGe, p));
    spec.algo = EngineAlgo::kAuto;
    auto outcome = engine.Submit(spec);
    ASSERT_TRUE(outcome.ok()) << "percent " << p;
    chosen.push_back(outcome->algo);
  }
  ASSERT_EQ(chosen.size(), 8u);
  for (EngineAlgo algo : chosen) EXPECT_EQ(algo, EngineAlgo::kQMatch);
}

TEST(PlannerDecisions, FreshAndWarmEnginesPlanAlike) {
  Graph g = MakeTinyFocusGraph();
  // Resolving auto reads no cache, so a warm engine resolves a query
  // exactly as a fresh one does.
  QueryEngine warm(&g);
  for (const Quantifier& quant : {Quantifier::Numeric(QuantOp::kGe, 1),
                                  Quantifier::Numeric(QuantOp::kGe, 2)}) {
    QuerySpec spec;
    spec.pattern = UserPattern(quant);
    spec.algo = EngineAlgo::kAuto;
    ASSERT_TRUE(warm.Submit(spec).ok());
    QueryEngine fresh(&g);
    auto cold = fresh.Submit(spec);
    auto hot = warm.Submit(spec);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(hot.ok());
    EXPECT_GT(hot->cache_hits, 0u);
    EXPECT_EQ(cold->algo, hot->algo);
    EXPECT_EQ(cold->answers, hot->answers);
  }
}

// ---------------------------------------------------------------------
// Effective-algo result-cache keying (the cache-collision regression)

TEST(PlannerResultCache, AutoSharesEntriesWithItsResolvedAlgo) {
  Graph g = MakeTinyFocusGraph();
  EngineOptions opts;
  opts.enable_result_cache = true;
  QueryEngine engine(&g, opts);

  QuerySpec manual;
  manual.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  manual.algo = EngineAlgo::kQMatch;
  auto stored = engine.Submit(manual);
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(stored->result_cache_hit);

  // Auto resolves this pattern to qmatch, so the result key — built
  // from the EFFECTIVE algorithm, not the submitted "auto" — lands on
  // the manual run's entry.
  QuerySpec automatic = manual;
  automatic.algo = EngineAlgo::kAuto;
  auto replayed = engine.Submit(automatic);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->result_cache_hit);
  EXPECT_EQ(replayed->algo, EngineAlgo::kQMatch);
  EXPECT_EQ(replayed->answers, stored->answers);

  // A different matcher over the same pattern must NOT collide: keying
  // on the submitted spec would have replayed the qmatch entry here.
  QuerySpec pqmatch = manual;
  pqmatch.algo = EngineAlgo::kPQMatch;
  auto fresh = engine.Submit(pqmatch);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->result_cache_hit);
  EXPECT_EQ(fresh->answers, stored->answers);  // same semantics either way
}

// Replayed outcomes carry the effective algorithm of the original run
// even when the replaying submission said "auto".
TEST(PlannerResultCache, ReplaysCarryTheEffectiveAlgo) {
  Graph g = MakeTinyFocusGraph();
  EngineOptions opts;
  opts.enable_result_cache = true;
  QueryEngine engine(&g, opts);
  QuerySpec spec;
  spec.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 2));
  spec.algo = EngineAlgo::kAuto;
  auto first = engine.Submit(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->result_cache_hit);
  auto second = engine.Submit(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cache_hit);
  EXPECT_EQ(second->algo, first->algo);
  testing::ExpectSameWork(second->stats, first->stats, "replay");
}

}  // namespace
}  // namespace qgp
