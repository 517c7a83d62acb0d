// Delta differential harness, engine layer: after every ApplyDelta, an
// engine evaluating a mixed-algorithm workload on the mutated graph must
// be ANSWER- and MATCHSTATS-identical to a fresh engine on a from-scratch
// rebuilt copy of the same content — for qmatch / QMatchn (qmatch with
// use_incremental_negation = false) / auto / pqmatch at thread counts
// {1, 2, 4, 8}, across randomized delta batches (including no-ops and
// inverse pairs that must round-trip answers) — and its answers must
// equal the Enum baseline's, called directly on the rebuilt graph.
// CSR invariants are re-asserted after every delta. Both engines run
// with the result cache and delta repair OFF (the defaults), which is
// what makes exact stats identity a fair demand; the repair-enabled
// variant at the bottom asserts answer identity plus fast-path telemetry.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/enum_matcher.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed) {
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

// Content-equal rebuild through the from-scratch construction path: the
// oracle an ApplyDelta'd CSR is compared against. Tombstoned vertices
// are reproduced as kInvalidLabel vertices so ids line up.
Graph RebuildLike(const Graph& g) {
  GraphBuilder b(g.dict());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    b.AddVertexWithLabel(g.vertex_label(v));
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Neighbor& nbr : g.OutNeighbors(v)) {
      EXPECT_TRUE(b.AddEdgeWithLabel(v, nbr.v, nbr.label).ok());
    }
  }
  return std::move(b).Build().value();
}

std::vector<VertexId> AliveVertices(const Graph& g) {
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_label(v) != kInvalidLabel) alive.push_back(v);
  }
  return alive;
}

// Random delta over the current graph: edge churn plus occasional vertex
// add/tombstone, all within the pre-interned label vocabulary.
GraphDelta RandomDelta(const Graph& g, std::mt19937* rng, size_t ops) {
  GraphDelta d;
  std::vector<VertexId> alive = AliveVertices(g);
  auto rand_vertex = [&]() { return alive[(*rng)() % alive.size()]; };
  for (size_t i = 0; i < ops; ++i) {
    switch ((*rng)() % 8) {
      case 0:
        d.add_vertices.push_back(
            g.dict().Find("nl" + std::to_string((*rng)() % 4)));
        break;
      case 1:
        d.remove_vertices.push_back(rand_vertex());
        break;
      case 2:
      case 3: {
        VertexId v = rand_vertex();
        auto nbrs = g.OutNeighbors(v);
        if (nbrs.empty()) break;
        const Neighbor& nbr = nbrs[(*rng)() % nbrs.size()];
        d.remove_edges.push_back({v, nbr.v, nbr.label});
        break;
      }
      default:
        d.add_edges.push_back(
            {rand_vertex(), rand_vertex(),
             g.dict().Find("el" + std::to_string((*rng)() % 3))});
        break;
    }
  }
  return d;
}

// The mixed workload: pattern families with and without negation,
// algorithms rotating through every engine dispatch path that evaluates
// on the engine's (possibly mutated) graph.
std::vector<QuerySpec> MakeWorkload(const Graph& g, uint64_t seed) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = seed % 2;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 6, pc, seed * 13 + 1);
  struct Matcher {
    EngineAlgo algo;
    bool incremental_negation;
  };
  const Matcher matchers[] = {{EngineAlgo::kQMatch, true},
                              {EngineAlgo::kQMatch, false},
                              {EngineAlgo::kAuto, true},
                              {EngineAlgo::kPQMatch, true}};
  std::vector<QuerySpec> workload;
  for (size_t i = 0; i < suite.size(); ++i) {
    QuerySpec spec;
    spec.pattern = std::move(suite[i]);
    spec.algo = matchers[i % 4].algo;
    spec.options.use_incremental_negation =
        matchers[i % 4].incremental_negation;
    spec.tag = "q" + std::to_string(i);
    workload.push_back(std::move(spec));
  }
  return workload;
}

// Drops workload entries the engine cannot evaluate on this graph at
// all (pattern radius exceeding partition d): both
// sides of the differential would fail identically, but the harness
// wants every retained spec to produce comparable outcomes.
std::vector<QuerySpec> FilterEvaluable(std::vector<QuerySpec> workload,
                                       const Graph& g, size_t threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  QueryEngine probe(&g, opts);
  std::vector<QuerySpec> kept;
  for (QuerySpec& spec : workload) {
    if (probe.Submit(spec).ok()) kept.push_back(std::move(spec));
  }
  return kept;
}

// One sweep: an owning engine absorbs 8 delta batches (one of them a
// no-op); after every batch the workload's outcomes must match a fresh
// engine over a rebuilt content-equal graph, and the mutated CSR must
// pass its invariant audit. `*batches_run` counts exercised batches
// (out-param because ASSERT_* needs a void-returning frame).
void RunSweep(uint64_t seed, size_t threads, size_t* batches_run,
              size_t* enum_compared) {
  Graph base = MakeGraph(seed);
  std::vector<QuerySpec> workload =
      FilterEvaluable(MakeWorkload(base, seed), base, threads);
  ASSERT_FALSE(workload.empty());

  EngineOptions opts;
  opts.num_threads = threads;
  QueryEngine engine(std::move(base), opts);

  std::mt19937 rng(seed * 101 + 3);
  for (int batch = 0; batch < 8; ++batch) {
    GraphDelta delta = (batch == 3)
                           ? GraphDelta{}  // no-op batch: version still bumps
                           : RandomDelta(engine.graph(), &rng, 1 + rng() % 6);
    const uint64_t before = engine.graph_version();
    auto outcome = engine.ApplyDelta(delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->graph_version, before + 1);
    EXPECT_EQ(engine.graph_version(), before + 1);
    ASSERT_TRUE(engine.graph().ValidateInvariants().ok());
    ++*batches_run;

    Graph rebuilt = RebuildLike(engine.graph());
    ASSERT_TRUE(ContentEquals(engine.graph(), rebuilt));
    QueryEngine reference(&rebuilt, opts);
    MatchOptions capped;
    capped.max_isomorphisms = 2'000'000;
    for (const QuerySpec& spec : workload) {
      auto got = engine.Submit(spec);
      auto want = reference.Submit(spec);
      ASSERT_EQ(got.ok(), want.ok())
          << spec.tag << " batch " << batch << " "
          << (got.ok() ? want.status().ToString() : got.status().ToString());
      if (!got.ok()) continue;
      const std::string context = "seed " + std::to_string(seed) + " t" +
                                  std::to_string(threads) + " batch " +
                                  std::to_string(batch) + " " + spec.tag;
      EXPECT_EQ(got->answers, want->answers) << context;
      testing::ExpectSameWork(got->stats, want->stats, context);
      // The graph sequence is the same at every width, so one width
      // suffices for the single-threaded baseline.
      if (threads != 1) continue;
      auto enumerated = EnumMatcher::Evaluate(spec.pattern, rebuilt, capped);
      if (!enumerated.ok()) continue;  // cap tripped
      EXPECT_EQ(got->answers, *enumerated) << context << " vs Enum";
      ++*enum_compared;
    }
  }
}

TEST(EngineDeltaDifferential, ApplyEqualsRebuildAcrossThreadCounts) {
  size_t total_batches = 0;
  size_t enum_compared = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      RunSweep(seed, threads, &total_batches, &enum_compared);
    }
  }
  // The acceptance floor: at least 100 randomized delta batches across
  // algorithms and thread counts, every one differentially checked.
  EXPECT_GE(total_batches, 100u);
  EXPECT_GE(enum_compared, 100u) << "Enum overflowed too often";
}

// Applies edge-only deltas followed by their inverses; after every pair
// the graph content and every query's answers must be back to the
// pristine state. Additions are restricted to edges not already present
// (re-adding a present edge is a no-op forward but its inverse removal
// would not be), which makes inverse(batch) an exact undo.
TEST(EngineDeltaDifferential, InverseDeltaPairsRoundTripAnswers) {
  Graph base = MakeGraph(7);
  std::vector<QuerySpec> workload =
      FilterEvaluable(MakeWorkload(base, 7), base, 4);
  ASSERT_FALSE(workload.empty());
  EngineOptions opts;
  opts.num_threads = 4;
  QueryEngine engine(std::move(base), opts);
  Graph pristine = engine.graph();  // value copy of the pre-delta graph

  std::vector<AnswerSet> before;
  for (const QuerySpec& spec : workload) {
    auto r = engine.Submit(spec);
    ASSERT_TRUE(r.ok());
    before.push_back(r->answers);
  }

  std::mt19937 rng(99);
  for (int round = 0; round < 10; ++round) {
    const Graph& g = engine.graph();
    std::vector<VertexId> alive = AliveVertices(g);
    GraphDelta d;
    for (int i = 0; i < 3; ++i) {
      VertexId v = alive[rng() % alive.size()];
      auto nbrs = g.OutNeighbors(v);
      if (!nbrs.empty() && rng() % 2 == 0) {
        const Neighbor& nbr = nbrs[rng() % nbrs.size()];
        d.remove_edges.push_back({v, nbr.v, nbr.label});
      } else {
        VertexId dst = alive[rng() % alive.size()];
        Label el = g.dict().Find("el" + std::to_string(rng() % 3));
        if (!g.HasEdge(v, dst, el)) d.add_edges.push_back({v, dst, el});
      }
    }
    GraphDelta inverse;
    inverse.add_edges = d.remove_edges;
    inverse.remove_edges = d.add_edges;

    auto fwd = engine.ApplyDelta(d);
    ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
    auto bwd = engine.ApplyDelta(inverse);
    ASSERT_TRUE(bwd.ok()) << bwd.status().ToString();
    ASSERT_TRUE(engine.graph().ValidateInvariants().ok());
    ASSERT_TRUE(ContentEquals(engine.graph(), pristine)) << "round " << round;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto r = engine.Submit(workload[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->answers, before[i])
          << workload[i].tag << " round " << round;
    }
  }
}

TEST(EngineDeltaDifferential, BorrowingEngineRejectsDeltas) {
  Graph g = MakeGraph(2);
  QueryEngine engine(&g);
  auto r = engine.ApplyDelta(GraphDelta{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDeltaDifferential, DeltaInvalidatesResultCacheExactly) {
  Graph base = MakeGraph(4);
  std::vector<QuerySpec> workload =
      FilterEvaluable(MakeWorkload(base, 4), base, 2);
  ASSERT_FALSE(workload.empty());
  EngineOptions opts;
  opts.num_threads = 2;
  opts.enable_result_cache = true;
  QueryEngine engine(std::move(base), opts);

  for (const QuerySpec& spec : workload) ASSERT_TRUE(engine.Submit(spec).ok());
  // Repeats hit.
  auto repeat = engine.Submit(workload[0]);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->result_cache_hit);

  auto outcome = engine.ApplyDelta(GraphDelta{});  // no-op still bumps version
  ASSERT_TRUE(outcome.ok());
  // Every stored entry predates the new version, so all are swept.
  EXPECT_GT(outcome->results_invalidated, 0u);
  EXPECT_LE(outcome->results_invalidated, workload.size());

  // Post-delta, the same query re-evaluates (miss), then hits again.
  auto miss = engine.Submit(workload[0]);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->result_cache_hit);
  auto hit = engine.Submit(workload[0]);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->result_cache_hit);
  EXPECT_EQ(hit->answers, repeat->answers);  // no-op delta: same content
}

// A delta that fails validation is atomic: the graph, its version, the
// candidate cache, the result cache (stored entries still hit) and the
// delta telemetry are all byte-identical to before the attempt — a
// rejected mutation never half-lands.
TEST(EngineDeltaDifferential, RejectedDeltaPerturbsNothing) {
  Graph base = MakeGraph(6);
  const size_t n = base.num_vertices();
  std::vector<QuerySpec> workload =
      FilterEvaluable(MakeWorkload(base, 6), base, 2);
  ASSERT_FALSE(workload.empty());
  EngineOptions opts;
  opts.num_threads = 2;
  opts.enable_result_cache = true;
  QueryEngine engine(std::move(base), opts);

  std::vector<AnswerSet> before;
  for (const QuerySpec& spec : workload) {
    auto r = engine.Submit(spec);
    ASSERT_TRUE(r.ok());
    before.push_back(r->answers);
  }
  const Graph pristine = engine.graph();
  const uint64_t version = engine.graph_version();
  const size_t cache_size = engine.cache().size();
  const EngineStats stats = engine.stats();

  // Two rejection shapes: an out-of-range endpoint, and a structurally
  // fine batch whose ONE bad edge must poison the whole batch.
  GraphDelta bad_endpoint;
  bad_endpoint.add_edges.push_back(
      {static_cast<VertexId>(n + 100), 0, engine.graph().dict().Find("el0")});
  GraphDelta mixed = bad_endpoint;
  mixed.add_vertices.push_back(engine.graph().dict().Find("nl0"));
  mixed.remove_vertices.push_back(0);
  for (const GraphDelta& delta : {bad_endpoint, mixed}) {
    auto rejected = engine.ApplyDelta(delta);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << rejected.status().ToString();
  }

  EXPECT_EQ(engine.graph_version(), version);
  EXPECT_TRUE(ContentEquals(engine.graph(), pristine));
  EXPECT_EQ(engine.cache().size(), cache_size);
  const EngineStats after = engine.stats();
  EXPECT_EQ(after.deltas, stats.deltas);
  EXPECT_EQ(after.results_invalidated, stats.results_invalidated);
  EXPECT_EQ(after.cache_evicted, stats.cache_evicted);

  // Stored results survived the failed attempts: repeats still hit, and
  // answers are unchanged.
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = engine.Submit(workload[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result_cache_hit) << workload[i].tag;
    EXPECT_EQ(r->answers, before[i]) << workload[i].tag;
  }
}

// algo = auto through deltas: after every ApplyDelta, an auto query on
// the mutated engine must resolve to the same matcher — and produce the
// same answers and work counters — as an auto query on a fresh engine
// over a rebuilt content-equal graph, so the choice never depends on
// pre-delta state.
TEST(EngineDeltaDifferential, AutoPlansMatchRebuildAfterDeltas) {
  for (uint64_t seed : {21u, 22u}) {
    Graph base = MakeGraph(seed);
    std::vector<QuerySpec> workload =
        FilterEvaluable(MakeWorkload(base, seed), base, 4);
    for (QuerySpec& spec : workload) spec.algo = EngineAlgo::kAuto;
    ASSERT_FALSE(workload.empty());

    EngineOptions opts;
    opts.num_threads = 4;
    QueryEngine engine(std::move(base), opts);
    // Warm the candidate cache so the first delta has entries to sweep.
    for (const QuerySpec& spec : workload) ASSERT_TRUE(engine.Submit(spec).ok());

    std::mt19937 rng(seed * 31 + 7);
    for (int batch = 0; batch < 6; ++batch) {
      GraphDelta delta = RandomDelta(engine.graph(), &rng, 1 + rng() % 5);
      auto applied = engine.ApplyDelta(delta);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();

      Graph rebuilt = RebuildLike(engine.graph());
      QueryEngine reference(&rebuilt, opts);
      for (const QuerySpec& spec : workload) {
        auto got = engine.Submit(spec);
        auto want = reference.Submit(spec);
        ASSERT_EQ(got.ok(), want.ok()) << spec.tag << " batch " << batch;
        if (!got.ok()) continue;
        const std::string context = "seed " + std::to_string(seed) +
                                    " batch " + std::to_string(batch) + " " +
                                    spec.tag;
        EXPECT_EQ(got->algo, want->algo) << context;
        EXPECT_NE(got->algo, EngineAlgo::kAuto) << context;
        EXPECT_EQ(got->answers, want->answers) << context;
        testing::ExpectSameWork(got->stats, want->stats, context);
      }
    }
  }
}

// Repair-enabled engines serve answer-identical results through the
// fast path. Stats identity is deliberately NOT asserted here — repair
// does less work; the harness above (repair off) owns stats identity.
TEST(EngineDeltaDifferential, RepairEnabledAnswersIdentical) {
  for (uint64_t seed : {11u, 12u}) {
    Graph base = MakeGraph(seed);
    // Positive-only qmatch workload: the repair-eligible shape.
    PatternGenConfig pc;
    pc.num_nodes = 4;
    pc.num_edges = 4;
    pc.num_quantified = 1;
    pc.num_negated = 0;
    std::vector<QuerySpec> workload;
    for (Pattern& p : GeneratePatternSuite(base, 5, pc, seed * 7 + 2)) {
      if (!p.IsPositive()) continue;
      QuerySpec spec;
      spec.pattern = std::move(p);
      spec.algo = EngineAlgo::kQMatch;
      workload.push_back(std::move(spec));
    }
    ASSERT_FALSE(workload.empty());

    EngineOptions opts;
    opts.num_threads = 4;
    opts.enable_delta_repair = true;
    QueryEngine engine(std::move(base), opts);
    for (const QuerySpec& spec : workload) {
      ASSERT_TRUE(engine.Submit(spec).ok());  // seeds the repair store
    }

    std::mt19937 rng(seed * 5 + 1);
    for (int batch = 0; batch < 6; ++batch) {
      GraphDelta delta = RandomDelta(engine.graph(), &rng, 1 + rng() % 4);
      ASSERT_TRUE(engine.ApplyDelta(delta).ok());
      Graph rebuilt = RebuildLike(engine.graph());
      EngineOptions ref_opts;
      ref_opts.num_threads = 4;
      QueryEngine reference(&rebuilt, ref_opts);
      for (const QuerySpec& spec : workload) {
        auto got = engine.Submit(spec);
        auto want = reference.Submit(spec);
        ASSERT_EQ(got.ok(), want.ok());
        if (!got.ok()) continue;
        EXPECT_TRUE(got->delta_repaired)
            << "repair store should cover re-submitted queries";
        EXPECT_EQ(got->answers, want->answers)
            << "seed " << seed << " batch " << batch;
      }
    }
    const EngineStats stats = engine.stats();
    EXPECT_GT(stats.repair_hits + stats.repair_fallbacks, 0u);
    EXPECT_EQ(stats.deltas, 6u);
  }
}

}  // namespace
}  // namespace qgp
