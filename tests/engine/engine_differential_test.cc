// Engine-batch differential suite: the semantics lock for the engine
// layer. On randomized (graph, workload) pairs, a QueryEngine evaluating
// a mixed-algorithm batch must be ANSWER- and MATCHSTATS-identical to
// standalone per-query runs (serial, no shared cache) — at thread counts
// {1, 2, 4, 8}, with cache-pressure eviction interleaved between batch
// entries, and under concurrent Submit from multiple client threads.
// Only the scheduler telemetry (MatchStats::scheduler_tasks/steals) may
// differ; every work counter must match exactly, which is what makes the
// engine's shared-cache + shared-pool reuse a pure optimization. The
// answers must also equal the Enum baseline's, called directly.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/enum_matcher.h"
#include "core/qmatch.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 50 + seed % 23;
  gc.num_edges = 150 + (seed % 11) * 9;
  gc.num_node_labels = 4 + seed % 3;
  gc.num_edge_labels = 3;
  gc.model = (seed % 2 == 0) ? SyntheticConfig::Model::kSmallWorld
                             : SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

// A mixed workload: two pattern families (different shapes, one with
// negated edges) interleaved, matchers rotating qmatch / QMatchn (qmatch
// with use_incremental_negation = false) / auto so one batch exercises
// every sequential dispatch path.
std::vector<QuerySpec> MakeWorkload(const Graph& g, uint64_t seed) {
  PatternGenConfig small;
  small.num_nodes = 4;
  small.num_edges = 4;
  small.num_quantified = 1;
  small.num_negated = seed % 2;
  PatternGenConfig larger;
  larger.num_nodes = 5;
  larger.num_edges = 5;
  larger.num_quantified = 2;
  larger.num_negated = 1;
  std::vector<Pattern> a = GeneratePatternSuite(g, 4, small, seed * 13 + 1);
  std::vector<Pattern> b = GeneratePatternSuite(g, 3, larger, seed * 17 + 5);
  a.insert(a.end(), b.begin(), b.end());

  struct Matcher {
    EngineAlgo algo;
    bool incremental_negation;
  };
  const Matcher matchers[] = {{EngineAlgo::kQMatch, true},
                              {EngineAlgo::kQMatch, false},
                              {EngineAlgo::kAuto, true}};
  std::vector<QuerySpec> workload;
  for (size_t i = 0; i < a.size(); ++i) {
    QuerySpec spec;
    spec.pattern = std::move(a[i]);
    spec.algo = matchers[i % 3].algo;
    spec.options.use_incremental_negation =
        matchers[i % 3].incremental_negation;
    spec.tag = "q" + std::to_string(i);
    workload.push_back(std::move(spec));
  }
  return workload;
}

// Standalone reference per spec: the per-query QMatch API (auto
// resolves to it on graphs this small), serial, no shared state; plus
// the Enum baseline's answers, nullopt where its isomorphism cap trips.
struct Reference {
  std::vector<QuerySpec> workload;
  std::vector<AnswerSet> answers;
  std::vector<MatchStats> stats;
  std::vector<std::optional<AnswerSet>> enum_answers;
};

Reference MakeReference(const Graph& g, uint64_t seed) {
  Reference ref;
  MatchOptions capped;
  capped.max_isomorphisms = 2'000'000;
  for (QuerySpec& spec : MakeWorkload(g, seed)) {
    MatchStats stats;
    auto answers = QMatch::Evaluate(spec.pattern, g, spec.options, &stats);
    if (!answers.ok()) continue;
    auto enumerated = EnumMatcher::Evaluate(spec.pattern, g, capped);
    ref.enum_answers.push_back(
        enumerated.ok() ? std::optional<AnswerSet>(*enumerated)
                        : std::nullopt);
    ref.workload.push_back(std::move(spec));
    ref.answers.push_back(std::move(answers).value());
    ref.stats.push_back(stats);
  }
  return ref;
}

// The headline contract: batches through an engine at any thread count
// are answer- and work-counter-identical to standalone serial runs.
TEST(EngineDifferentialTest, BatchesMatchStandaloneAtAllThreadCounts) {
  size_t compared = 0;
  size_t enum_compared = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = MakeGraph(seed);
    Reference ref = MakeReference(g, seed);
    if (ref.workload.empty()) continue;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions opts;
      opts.num_threads = threads;
      QueryEngine engine(&g, opts);
      auto outcomes = engine.RunBatch(ref.workload);
      ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
      ASSERT_EQ(outcomes->size(), ref.workload.size());
      for (size_t i = 0; i < outcomes->size(); ++i) {
        const std::string context =
            "seed " + std::to_string(seed) + " threads " +
            std::to_string(threads) + " " + ref.workload[i].tag + " (" +
            EngineAlgoName(*ref.workload[i].algo) + ")";
        EXPECT_EQ((*outcomes)[i].answers, ref.answers[i]) << context;
        if (ref.enum_answers[i].has_value()) {
          EXPECT_EQ((*outcomes)[i].answers, *ref.enum_answers[i])
              << context << " vs Enum";
          ++enum_compared;
        }
        testing::ExpectSameWork((*outcomes)[i].stats, ref.stats[i], context);
        ++compared;
      }
      // Cumulative engine stats are the sum of the per-query ones.
      MatchStats sum;
      for (const QueryOutcome& o : *outcomes) sum.Add(o.stats);
      testing::ExpectSameWork(engine.stats().match, sum,
                     "cumulative, seed " + std::to_string(seed));
    }
  }
  EXPECT_GE(compared, 100u) << "suite lost its volume; widen the seeds";
  EXPECT_GE(enum_compared, 100u) << "Enum overflowed too often";
}

// Cache eviction interleaved between batch entries — a server shedding
// memory mid-workload — must not change answers or work counters.
TEST(EngineDifferentialTest, EvictionBetweenEntriesChangesNothing) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = MakeGraph(seed + 40);
    Reference ref = MakeReference(g, seed + 40);
    for (size_t threads : {1u, 4u}) {
      EngineOptions opts;
      opts.num_threads = threads;
      QueryEngine engine(&g, opts);
      for (size_t i = 0; i < ref.workload.size(); ++i) {
        auto outcome = engine.Submit(ref.workload[i]);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        const std::string context = "seed " + std::to_string(seed) +
                                    " threads " + std::to_string(threads) +
                                    " " + ref.workload[i].tag;
        EXPECT_EQ(outcome->answers, ref.answers[i]) << context;
        testing::ExpectSameWork(outcome->stats, ref.stats[i], context);
        engine.EvictUnused();  // between every pair of entries
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 40u);
}

// A one-byte budget, result cache on, exercises the admit-evict-readmit
// churn path on every admission: no stored result or set outlives its
// query, and the cache is back within budget after every query.
TEST(EngineDifferentialTest, HardPressurePolicyChangesNothing) {
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    Graph g = MakeGraph(seed + 60);
    Reference ref = MakeReference(g, seed + 60);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions opts;
      opts.num_threads = threads;
      opts.cache_budget_bytes = 1;
      opts.enable_result_cache = true;
      QueryEngine engine(&g, opts);
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < ref.workload.size(); ++i) {
          const std::string context =
              "pressure seed " + std::to_string(seed) + " threads " +
              std::to_string(threads) + " pass " + std::to_string(pass) +
              " " + ref.workload[i].tag;
          auto outcome = engine.Submit(ref.workload[i]);
          ASSERT_TRUE(outcome.ok()) << context;
          EXPECT_EQ(outcome->answers, ref.answers[i]) << context;
          testing::ExpectSameWork(outcome->stats, ref.stats[i], context);
          EXPECT_LE(engine.cache().bytes(), opts.cache_budget_bytes)
              << context;
        }
      }
      EXPECT_EQ(engine.stats().result_hits, 0u);
    }
  }
}

// Result cache on, workload run three times through one engine: the
// second and third passes are served from memory and must still be
// answer- AND work-counter-identical to the standalone runs (a hit
// replays the original outcome, and the original was identical).
TEST(EngineDifferentialTest, ResultCacheRepeatsMatchStandalone) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = MakeGraph(seed + 80);
    Reference ref = MakeReference(g, seed + 80);
    if (ref.workload.empty()) continue;
    EngineOptions opts;
    opts.num_threads = 2;
    opts.enable_result_cache = true;
    QueryEngine engine(&g, opts);
    for (int pass = 0; pass < 3; ++pass) {
      auto outcomes = engine.RunBatch(ref.workload);
      ASSERT_TRUE(outcomes.ok());
      for (size_t i = 0; i < outcomes->size(); ++i) {
        const std::string context = "seed " + std::to_string(seed) +
                                    " pass " + std::to_string(pass) + " " +
                                    ref.workload[i].tag;
        EXPECT_EQ((*outcomes)[i].result_cache_hit, pass > 0) << context;
        EXPECT_EQ((*outcomes)[i].answers, ref.answers[i]) << context;
        testing::ExpectSameWork((*outcomes)[i].stats, ref.stats[i], context);
      }
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.result_hits, 2 * ref.workload.size());
    EXPECT_EQ(stats.result_misses, ref.workload.size());
  }
}

// Concurrent clients: Submit racing from several threads. Admission
// order is nondeterministic, but every query's answers and work
// counters must still match its standalone run — the shared cache and
// pool may never leak one query's state into another's results.
TEST(EngineDifferentialTest, ConcurrentSubmitsMatchStandalone) {
  Graph g = MakeGraph(77);
  Reference ref = MakeReference(g, 77);
  ASSERT_GE(ref.workload.size(), 2u);
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(&g, opts);

  constexpr size_t kClients = 4;
  std::vector<std::vector<AnswerSet>> got(kClients);
  std::vector<std::vector<MatchStats>> got_stats(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const QuerySpec& spec : ref.workload) {
        auto outcome = engine.Submit(spec);
        ASSERT_TRUE(outcome.ok());
        got[c].push_back(std::move(outcome->answers));
        got_stats[c].push_back(outcome->stats);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), ref.workload.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      const std::string context =
          "client " + std::to_string(c) + " " + ref.workload[i].tag;
      EXPECT_EQ(got[c][i], ref.answers[i]) << context;
      testing::ExpectSameWork(got_stats[c][i], ref.stats[i], context);
    }
  }
  EXPECT_EQ(engine.stats().queries, kClients * ref.workload.size());
}

}  // namespace
}  // namespace qgp
