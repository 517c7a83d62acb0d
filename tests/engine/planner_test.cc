// Planner suite: the semantics lock for algo = auto. The headline
// differential asserts that an auto query is ANSWER- and MATCHSTATS-
// identical to submitting the planner's chosen algorithm manually, at
// thread counts {1, 2, 4, 8} — the planner may change the schedule but
// never the work. The rest pins the cost model's decision boundaries on
// hand-built graphs (quantifier-only variants plan alike; cache-bypassing
// specs plan like shared ones), and the effective-algo result-cache
// keying.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"

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

// A graph whose "user" label has exactly 4 vertices (below the default
// enum_focus_cutoff of 8) and whose "page" label has 30 (above it), so
// cost-model decisions are pinned rather than sampled.
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

// Work-counter identity: everything but the scheduler telemetry (which
// describes the schedule, not the work — see match_types.h).
void ExpectSameWork(const MatchStats& a, const MatchStats& b,
                    const std::string& context) {
  EXPECT_EQ(a.isomorphisms_enumerated, b.isomorphisms_enumerated) << context;
  EXPECT_EQ(a.witness_searches, b.witness_searches) << context;
  EXPECT_EQ(a.search_extensions, b.search_extensions) << context;
  EXPECT_EQ(a.candidates_initial, b.candidates_initial) << context;
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned) << context;
  EXPECT_EQ(a.focus_candidates_checked, b.focus_candidates_checked) << context;
  EXPECT_EQ(a.inc_candidates_checked, b.inc_candidates_checked) << context;
  EXPECT_EQ(a.balls_built, b.balls_built) << context;
}

// ---------------------------------------------------------------------
// The differential: auto ≡ the manually submitted plan

// Submit every pattern under algo = auto, read back the planner's
// choice, then run the identical spec with that algorithm requested
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
          spec.options.max_isomorphisms = 2'000'000;
          spec.options.use_incremental_negation = incremental;
          spec.tag = "q" + std::to_string(i) + (incremental ? "" : " naive");
          auto planned = auto_engine.Submit(spec);
          if (!planned.ok()) continue;  // overflow under caps: skip
          ASSERT_NE(planned->algo, EngineAlgo::kAuto)
              << "auto must resolve to a concrete matcher";

          spec.algo = planned->algo;
          auto manual = manual_engine.Submit(spec);
          ASSERT_TRUE(manual.ok()) << manual.status().ToString();
          const std::string context =
              "seed " + std::to_string(seed) + " t" + std::to_string(threads) +
              " " + spec.tag + " (" + EngineAlgoName(planned->algo) + ")";
          EXPECT_EQ(planned->answers, manual->answers) << context;
          ExpectSameWork(planned->stats, manual->stats, context);
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 60u) << "suite lost its volume; widen the seeds";
}

// ---------------------------------------------------------------------
// Decision boundaries (hand-built graph, pinned cutoffs)

TEST(PlannerDecisions, TinyFocusConventionalPlansToEnum) {
  Graph g = MakeTinyFocusGraph();
  QueryEngine engine(&g);
  QuerySpec spec;
  spec.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  spec.algo = EngineAlgo::kAuto;
  auto outcome = engine.Submit(spec);
  ASSERT_TRUE(outcome.ok());
  // 4 "user" foci <= enum_focus_cutoff (8), no counting quantifier:
  // enumerate-then-verify wins.
  EXPECT_EQ(outcome->algo, EngineAlgo::kEnum);

  // The same shape focused on "page" (30 candidates) crosses the cutoff.
  QuerySpec wide = spec;
  (void)wide.pattern.set_focus(1);
  auto wide_outcome = engine.Submit(wide);
  ASSERT_TRUE(wide_outcome.ok());
  EXPECT_EQ(wide_outcome->algo, EngineAlgo::kQMatch);

  // A counting quantifier disqualifies enum regardless of focus count.
  QuerySpec counting = spec;
  counting.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 2));
  auto counting_outcome = engine.Submit(counting);
  ASSERT_TRUE(counting_outcome.ok());
  EXPECT_EQ(counting_outcome->algo, EngineAlgo::kQMatch);
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
  opts.planner.partition_vertex_cutoff = 1;
  QueryEngine engine(&g, opts);

  QuerySpec counting;
  counting.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 2));
  counting.algo = EngineAlgo::kAuto;
  auto pq = engine.Submit(counting);
  ASSERT_TRUE(pq.ok());
  EXPECT_EQ(pq->algo, EngineAlgo::kPQMatch);

  QuerySpec conventional;
  conventional.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  conventional.algo = EngineAlgo::kAuto;
  auto pe = engine.Submit(conventional);
  ASSERT_TRUE(pe.ok());
  EXPECT_EQ(pe->algo, EngineAlgo::kPEnum);

  // Parallel routing is still answer-identical to the serial picks.
  EngineOptions serial_opts;
  QueryEngine serial(&g, serial_opts);
  auto pq_serial = serial.Submit(counting);
  auto pe_serial = serial.Submit(conventional);
  ASSERT_TRUE(pq_serial.ok());
  ASSERT_TRUE(pe_serial.ok());
  EXPECT_EQ(pq->answers, pq_serial->answers);
  EXPECT_EQ(pe->answers, pe_serial->answers);
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

TEST(PlannerDecisions, CacheBypassingSpecsPlanAlike) {
  Graph g = MakeTinyFocusGraph();
  // The conventional pattern reads the focus count, fresh when the spec
  // bypasses the shared cache; the counting one never reads it.
  for (const Quantifier& quant : {Quantifier::Numeric(QuantOp::kGe, 1),
                                  Quantifier::Numeric(QuantOp::kGe, 2)}) {
    QueryEngine engine(&g);
    QuerySpec spec;
    spec.pattern = UserPattern(quant);
    spec.algo = EngineAlgo::kAuto;
    spec.share_cache = false;
    auto bypassing = engine.Submit(spec);
    ASSERT_TRUE(bypassing.ok());
    EXPECT_EQ(engine.cache().size(), 0u) << "a bypassing spec interned";
    spec.share_cache = true;
    auto shared = engine.Submit(spec);
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(bypassing->algo, shared->algo);
    EXPECT_EQ(bypassing->answers, shared->answers);
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
  manual.algo = EngineAlgo::kEnum;
  auto stored = engine.Submit(manual);
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(stored->result_cache_hit);

  // Auto resolves this pattern to enum, so the result key — built from
  // the EFFECTIVE algorithm, not the submitted "auto" — lands on the
  // manual run's entry.
  QuerySpec automatic = manual;
  automatic.algo = EngineAlgo::kAuto;
  auto replayed = engine.Submit(automatic);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->result_cache_hit);
  EXPECT_EQ(replayed->algo, EngineAlgo::kEnum);
  EXPECT_EQ(replayed->answers, stored->answers);

  // A different matcher over the same pattern must NOT collide: keying
  // on the submitted spec (the old behavior) would have replayed the
  // enum entry here.
  QuerySpec qmatch = manual;
  qmatch.algo = EngineAlgo::kQMatch;
  auto fresh = engine.Submit(qmatch);
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
  ExpectSameWork(second->stats, first->stats, "replay");
}

// ---------------------------------------------------------------------
// Engine default

TEST(PlannerDefaults, DefaultAlgoAutoAppliesToBareSpecs) {
  Graph g = MakeTinyFocusGraph();
  EngineOptions opts;
  opts.default_algo = EngineAlgo::kAuto;
  QueryEngine engine(&g, opts);
  QuerySpec spec;  // algo deliberately unset
  spec.pattern = UserPattern(Quantifier::Numeric(QuantOp::kGe, 1));
  auto outcome = engine.Submit(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->algo, EngineAlgo::kEnum);

  // An explicit spec algo still overrides the engine default.
  spec.algo = EngineAlgo::kQMatch;
  auto manual = engine.Submit(spec);
  ASSERT_TRUE(manual.ok());
  EXPECT_EQ(manual->algo, EngineAlgo::kQMatch);
  EXPECT_EQ(manual->answers, outcome->answers);
}

}  // namespace
}  // namespace qgp
