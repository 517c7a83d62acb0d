// Shard differential harness: a ShardedEngine at shard counts {1, 2, 4}
// must be ANSWER-identical to a single QueryEngine over the same graph
// for every algo family (qmatch / QMatchn — qmatch with
// use_incremental_negation = false — / pqmatch / auto), across
// randomized graph/pattern pairs, and must STAY identical after
// randomized delta batches routed through the coordinator
// (apply-to-shards ≡ apply-to-single). On the pristine graph the
// answers must also equal the Enum and PEnum baselines', called
// directly. Work-counter identity is asserted on the pristine partition
// against single-engine PQMatch over the same DPar config — a shard
// evaluating its fragment's owned foci is exactly one PQMatch worker,
// so the summed non-scheduler MatchStats must match to the counter.
// (Post-delta the routed fragments legitimately diverge from a fresh
// partition — stale replicas are kept — so only answers are asserted
// there; invariants I1-I3 keep them exact.)

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/enum_matcher.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_delta.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"
#include "shard/sharded_engine.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

using shard::ShardedEngine;
using shard::ShardedOptions;
using shard::ShardedOutcome;

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

std::vector<VertexId> AliveVertices(const Graph& g) {
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_label(v) != kInvalidLabel) alive.push_back(v);
  }
  return alive;
}

// Random delta in NAMED form — the coordinator resolves labels against
// its master dict and cuts per-shard sub-deltas from the result.
NamedGraphDelta RandomNamedDelta(const Graph& g, std::mt19937* rng,
                                 size_t ops) {
  NamedGraphDelta d;
  std::vector<VertexId> alive = AliveVertices(g);
  auto rand_vertex = [&]() { return alive[(*rng)() % alive.size()]; };
  for (size_t i = 0; i < ops; ++i) {
    switch ((*rng)() % 8) {
      case 0:
        d.add_vertices.push_back("nl" + std::to_string((*rng)() % 4));
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
        d.remove_edges.push_back({v, nbr.v, g.dict().Name(nbr.label)});
        break;
      }
      default:
        d.add_edges.push_back({rand_vertex(), rand_vertex(),
                               "el" + std::to_string((*rng)() % 3)});
        break;
    }
  }
  return d;
}

// Mixed workload rotating through every algo family plus auto. Only
// radius <= d patterns are kept (larger radii are rejected by the
// coordinator and the parallel families alike) and only specs the
// single engine can evaluate (both sides would fail identically).
std::vector<QuerySpec> MakeWorkload(const Graph& g, uint64_t seed, int d) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = seed % 2;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 8, pc, seed * 13 + 1);
  struct Matcher {
    EngineAlgo algo;
    bool incremental_negation;
  };
  const Matcher matchers[] = {{EngineAlgo::kQMatch, true},
                              {EngineAlgo::kQMatch, false},
                              {EngineAlgo::kPQMatch, true},
                              {EngineAlgo::kAuto, true}};
  EngineOptions probe_opts;
  probe_opts.num_threads = 2;
  QueryEngine probe(&g, probe_opts);
  std::vector<QuerySpec> workload;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].Radius() > d) continue;
    QuerySpec spec;
    spec.pattern = std::move(suite[i]);
    const Matcher& m = matchers[workload.size() % 4];
    spec.algo = m.algo;
    spec.options.use_incremental_negation = m.incremental_negation;
    spec.tag = "q" + std::to_string(i);
    if (!probe.Submit(spec).ok()) continue;
    workload.push_back(std::move(spec));
  }
  return workload;
}

// One (seed, shard count) sweep. *pairs counts evaluated graph/pattern
// pairs so the top-level test can assert the >= 64 coverage floor, and
// *baseline_pairs the pairs also checked against Enum and PEnum.
void RunSweep(uint64_t seed, size_t num_shards, size_t* pairs,
              size_t* baseline_pairs) {
  const int d = 2;
  Graph base = MakeGraph(seed);
  std::vector<QuerySpec> workload = MakeWorkload(base, seed, d);
  ASSERT_FALSE(workload.empty());

  ShardedOptions sopts;
  sopts.num_shards = num_shards;
  sopts.d = d;
  sopts.engine.num_threads = 2;
  auto sharded = ShardedEngine::Create(base, sopts);  // copy of base
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->num_shards(), num_shards);

  EngineOptions ref_opts;
  ref_opts.num_threads = 2;
  ref_opts.partition_fragments = num_shards;
  ref_opts.partition_d = d;
  QueryEngine reference(base, ref_opts);  // same content, single engine

  DParConfig dpc;
  dpc.num_fragments = num_shards;
  dpc.d = d;
  auto partition = DPar(base, dpc);
  ASSERT_TRUE(partition.ok());
  ParallelConfig capped;
  capped.match.max_isomorphisms = 2'000'000;

  for (const QuerySpec& spec : workload) {
    const std::string context = "seed " + std::to_string(seed) + " shards " +
                                std::to_string(num_shards) + " " + spec.tag;
    auto got = (*sharded)->Submit(spec);
    auto want = reference.Submit(spec);
    ASSERT_EQ(got.ok(), want.ok())
        << context << " "
        << (got.ok() ? want.status().ToString() : got.status().ToString());
    if (!got.ok()) continue;
    ++*pairs;
    EXPECT_EQ(got->answers, want->answers) << context;
    EXPECT_FALSE(got->partial) << context;
    EXPECT_EQ(got->shards.size(), num_shards) << context;

    // Work identity on the pristine partition: a sharded qmatch IS
    // PQMatch over the same DPar config, shard by shard, so the summed
    // counters must agree exactly.
    if (spec.algo == EngineAlgo::kQMatch) {
      QuerySpec twin = spec;
      twin.algo = EngineAlgo::kPQMatch;
      twin.share_cache = false;
      auto twin_run = reference.Submit(twin);
      ASSERT_TRUE(twin_run.ok()) << context;
      EXPECT_EQ(got->answers, twin_run->answers) << context;
      testing::ExpectSameWork(got->stats, twin_run->stats, context);
    }

    auto enumerated = EnumMatcher::Evaluate(spec.pattern, base, capped.match);
    auto penum = PEnum::Evaluate(spec.pattern, *partition, capped);
    if (!enumerated.ok() || !penum.ok()) continue;  // cap tripped
    EXPECT_EQ(got->answers, *enumerated) << context << " vs Enum";
    EXPECT_EQ(got->answers, penum->answers) << context << " vs PEnum";
    ++*baseline_pairs;
  }

  // Delta phase: route the same batches through both sides. Answers
  // must stay identical (the routed fragments keep every owned d-hop
  // ball exact); work counters may drift (stale replicas are kept, a
  // fresh partition would place balls differently).
  std::mt19937 rng(seed * 101 + num_shards);
  QueryEngine mutated(base, ref_opts);  // owning single-engine twin
  for (int batch = 0; batch < 3; ++batch) {
    NamedGraphDelta delta = RandomNamedDelta(mutated.graph(), &rng,
                                             1 + rng() % 5);
    auto to_shards = (*sharded)->ApplyDelta(delta);
    auto to_single = mutated.ApplyDelta(delta);
    ASSERT_EQ(to_shards.ok(), to_single.ok())
        << "seed " << seed << " shards " << num_shards << " batch " << batch;
    if (!to_shards.ok()) continue;
    EXPECT_EQ((*sharded)->graph_version(), mutated.graph_version());
    ASSERT_TRUE(ContentEquals((*sharded)->graph(), mutated.graph()));

    for (const QuerySpec& spec : workload) {
      const std::string context = "seed " + std::to_string(seed) + " shards " +
                                  std::to_string(num_shards) + " batch " +
                                  std::to_string(batch) + " " + spec.tag;
      auto got = (*sharded)->Submit(spec);
      auto want = mutated.Submit(spec);
      ASSERT_EQ(got.ok(), want.ok()) << context;
      if (!got.ok()) continue;
      ++*pairs;
      EXPECT_EQ(got->answers, want->answers) << context;
    }
  }
}

TEST(ShardDifferential, ShardCountsMatchSingleEngine) {
  size_t pairs = 0;
  size_t baseline_pairs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (size_t shards : {1u, 2u, 4u}) {
      RunSweep(seed, shards, &pairs, &baseline_pairs);
    }
  }
  // The coverage floor: >= 64 randomized graph/pattern pairs
  // differentially checked (pre- and post-delta evaluations both count —
  // each is a full sharded-vs-single comparison).
  EXPECT_GE(pairs, 64u);
  EXPECT_GT(baseline_pairs, 0u);
}

// Ownership never double-reports or drops: the per-shard owned counts
// always sum to |V| (alive or tombstoned — ownership follows ids), and
// every slice's answers are disjoint by construction.
TEST(ShardDifferential, OwnershipPartitionsVertices) {
  Graph g = MakeGraph(5);
  for (size_t shards : {1u, 2u, 4u}) {
    ShardedOptions sopts;
    sopts.num_shards = shards;
    sopts.engine.num_threads = 1;
    auto sharded = ShardedEngine::Create(g, sopts);
    ASSERT_TRUE(sharded.ok());
    size_t total = 0;
    for (size_t c : (*sharded)->OwnedCounts()) total += c;
    EXPECT_EQ(total, g.num_vertices());
  }
}

// A pattern whose radius exceeds the serving depth is rejected up
// front with the same error shape as the parallel families.
TEST(ShardDifferential, RejectsOverRadiusPatterns) {
  Graph g = MakeGraph(3);
  ShardedOptions sopts;
  sopts.num_shards = 2;
  sopts.d = 1;
  sopts.engine.num_threads = 1;
  auto sharded = ShardedEngine::Create(g, sopts);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  PatternGenConfig pc;
  pc.num_nodes = 5;
  pc.num_edges = 4;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 8, pc, 17);
  bool exercised = false;
  for (Pattern& p : suite) {
    if (p.Radius() <= 1) continue;
    QuerySpec spec;
    spec.pattern = std::move(p);
    auto r = (*sharded)->Submit(spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    exercised = true;
    break;
  }
  EXPECT_TRUE(exercised) << "suite produced no radius > 1 pattern";
}

}  // namespace
}  // namespace qgp
