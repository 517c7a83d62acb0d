// QueryEngine unit tests: algorithm dispatch equals the standalone
// APIs, cumulative stats and cache telemetry accumulate, the admission
// and pressure policies behave, and the lazily built partition matches
// a standalone DPar build.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "core/candidate_space.h"
#include "core/enum_matcher.h"
#include "core/qmatch.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"
#include "parallel/pqmatch.h"
#include "testing/thread_count.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed = 3) {
  SyntheticConfig gc;
  gc.num_vertices = 80;
  gc.num_edges = 260;
  gc.num_node_labels = 5;
  gc.num_edge_labels = 3;
  gc.model = SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

std::vector<Pattern> MakePatterns(const Graph& g, size_t count,
                                  size_t num_negated = 1,
                                  uint64_t seed = 91) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = num_negated;
  return GeneratePatternSuite(g, count, pc, seed);
}

TEST(EngineAlgoTest, NamesRoundTrip) {
  for (EngineAlgo algo :
       {EngineAlgo::kQMatch, EngineAlgo::kPQMatch, EngineAlgo::kAuto}) {
    auto parsed = ParseEngineAlgo(EngineAlgoName(algo));
    ASSERT_TRUE(parsed.has_value()) << EngineAlgoName(algo);
    EXPECT_EQ(*parsed, algo);
  }
  // The QMatchn baseline is qmatch with use_incremental_negation = false,
  // not an algo of its own.
  EXPECT_FALSE(ParseEngineAlgo("qmatchn").has_value());
  // The enumeration baselines are direct calls, not served algos.
  EXPECT_FALSE(ParseEngineAlgo("enum").has_value());
  EXPECT_FALSE(ParseEngineAlgo("penum").has_value());
  EXPECT_FALSE(ParseEngineAlgo("bogus").has_value());
  EXPECT_FALSE(ParseEngineAlgo("").has_value());
}

TEST(QueryEngineTest, SequentialAlgosMatchStandalone) {
  Graph g = MakeGraph();
  std::vector<Pattern> patterns = MakePatterns(g, 4);
  ASSERT_FALSE(patterns.empty());
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(&g, opts);
  for (const Pattern& q : patterns) {
    SCOPED_TRACE(q.ToString(&g.dict()));
    QuerySpec spec;
    spec.pattern = q;

    spec.algo = EngineAlgo::kQMatch;
    auto via_engine = engine.Submit(spec);
    ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
    auto standalone = QMatch::Evaluate(q, g);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(via_engine->answers, standalone.value());

    spec.options.use_incremental_negation = false;
    via_engine = engine.Submit(spec);
    ASSERT_TRUE(via_engine.ok());
    EXPECT_EQ(via_engine->algo, EngineAlgo::kQMatch);
    standalone = QMatch::Evaluate(q, g, spec.options);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(via_engine->answers, standalone.value());
    spec.options.use_incremental_negation = true;

    // The enumeration baseline, called directly, agrees.
    MatchOptions capped;
    capped.max_isomorphisms = 5'000'000;
    standalone = EnumMatcher::Evaluate(q, g, capped);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(via_engine->answers, standalone.value());
  }
}

TEST(QueryEngineTest, PartitionAlgosMatchStandalone) {
  Graph g = MakeGraph(5);
  std::vector<Pattern> patterns = MakePatterns(g, 3, /*num_negated=*/0);
  ASSERT_FALSE(patterns.empty());
  EngineOptions opts;
  opts.partition_fragments = 3;
  opts.partition_d = 2;
  QueryEngine engine(&g, opts);

  DParConfig dpc;
  dpc.num_fragments = 3;
  dpc.d = 2;
  auto partition = DPar(g, dpc);
  ASSERT_TRUE(partition.ok());

  for (const Pattern& q : patterns) {
    if (q.Radius() > 2) continue;
    SCOPED_TRACE(q.ToString(&g.dict()));
    QuerySpec spec;
    spec.pattern = q;
    spec.algo = EngineAlgo::kPQMatch;
    auto via_engine = engine.Submit(spec);
    ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
    ParallelConfig config;
    auto standalone = PQMatch::Evaluate(q, *partition, config);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(via_engine->answers, standalone->answers);

    ParallelConfig capped;
    capped.match.max_isomorphisms = 5'000'000;
    auto penum = PEnum::Evaluate(q, *partition, capped);
    ASSERT_TRUE(penum.ok()) << penum.status().ToString();
    EXPECT_EQ(via_engine->answers, penum->answers)
        << "PEnum disagrees with the engine's PQMatch";
  }
}

// PQMatch fragments fan out on the engine's own pool (num_threads − 1
// workers, built with the engine) plus the submitting thread: while the
// fragments are parked at their seam, the process has exactly the
// threads it had before the query.
TEST(QueryEngineTest, PartitionQueryCreatesNoThread) {
  Graph g = MakeGraph(5);
  std::vector<Pattern> patterns = MakePatterns(g, 3, /*num_negated=*/0);
  const Pattern* q = nullptr;
  for (const Pattern& p : patterns) {
    if (p.Radius() <= 2) q = &p;
  }
  ASSERT_NE(q, nullptr);
  EngineOptions opts;
  opts.num_threads = 2;
  opts.partition_fragments = 8;
  opts.partition_d = 2;
  QueryEngine engine(&g, opts);
  QuerySpec spec;
  spec.pattern = *q;
  spec.algo = EngineAlgo::kPQMatch;
  auto warm = engine.Submit(spec);  // builds the partition
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  failpoint::Action a;
  a.kind = failpoint::Action::Kind::kDelayMs;
  a.delay_ms = 50;
  failpoint::Arm("pqmatch.fragment", a);
  std::atomic<bool> finished{false};
  std::atomic<size_t> parked_threads{0};
  std::thread observer([&] {
    while (failpoint::HitCount("pqmatch.fragment") == 0 && !finished.load()) {
      std::this_thread::yield();
    }
    parked_threads.store(testing::ThreadCount());
  });
  const size_t before = testing::SettledThreadCount();
  auto out = engine.Submit(spec);
  finished.store(true);
  observer.join();
  const uint64_t hits = failpoint::HitCount("pqmatch.fragment");
  failpoint::DisarmAll();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->answers, warm->answers);
  EXPECT_EQ(hits, 8u);  // one per fragment
  EXPECT_EQ(parked_threads.load(), before);
}

TEST(QueryEngineTest, PartitionIsLazyAndRadiusChecked) {
  Graph g = MakeGraph(7);
  std::vector<Pattern> patterns = MakePatterns(g, 1, /*num_negated=*/0);
  ASSERT_FALSE(patterns.empty());
  EngineOptions opts;
  opts.partition_d = 0;  // no pattern with an edge fits radius 0
  QueryEngine engine(&g, opts);
  QuerySpec spec;
  spec.pattern = patterns[0];
  spec.algo = EngineAlgo::kPQMatch;
  auto outcome = engine.Submit(spec);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(engine.stats().failed, 1u);
  // The failure is per-query; the engine keeps serving.
  spec.algo = EngineAlgo::kQMatch;
  outcome = engine.Submit(spec);
  EXPECT_TRUE(outcome.ok());
}

TEST(QueryEngineTest, WarmCacheHitsAndIdenticalAnswers) {
  Graph g = MakeGraph(11);
  // One negated edge: the repeat serves Π(Q) and every Π(Q⁺ᵉ) warm.
  std::vector<Pattern> patterns = MakePatterns(g, 3);
  ASSERT_FALSE(patterns.empty());
  QueryEngine engine(&g);
  QuerySpec spec;
  spec.pattern = patterns[0];
  auto cold = engine.Submit(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->cache_misses, 0u) << "cold query should populate the cache";
  auto warm = engine.Submit(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->cache_hits, 0u) << "repeat query should hit";
  EXPECT_EQ(warm->cache_misses, 0u);
  EXPECT_EQ(cold->answers, warm->answers);
  // The candidate counters read the finished sets, so a warm run reports
  // the cold run's numbers.
  EXPECT_GT(cold->stats.candidates_initial, 0u);
  EXPECT_EQ(warm->stats.candidates_initial, cold->stats.candidates_initial);
  EXPECT_EQ(warm->stats.candidates_pruned, cold->stats.candidates_pruned);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, cold->cache_hits + warm->cache_hits);
  EXPECT_EQ(stats.cache_misses, cold->cache_misses + warm->cache_misses);
  EXPECT_GT(stats.HitRatio(), 0.0);
  EXPECT_GE(stats.wall_ms, cold->wall_ms);

  // On a positive pattern, QMatch builds Π(Q)'s candidate space only, so
  // the counters are exactly that build's, warm or cold.
  std::vector<Pattern> positive = MakePatterns(g, 1, /*num_negated=*/0);
  ASSERT_FALSE(positive.empty());
  spec.pattern = positive[0];
  spec.algo = EngineAlgo::kQMatch;
  auto pos_cold = engine.Submit(spec);
  auto pos_warm = engine.Submit(spec);
  ASSERT_TRUE(pos_cold.ok()) << pos_cold.status().ToString();
  ASSERT_TRUE(pos_warm.ok()) << pos_warm.status().ToString();
  auto pi = spec.pattern.Pi();
  ASSERT_TRUE(pi.ok());
  MatchStats build;
  ASSERT_TRUE(CandidateSpace::Build(pi->first, g, MatchOptions{}, &build).ok());
  EXPECT_GT(pos_cold->stats.candidates_initial, 0u);
  for (const QueryOutcome* o : {&*pos_cold, &*pos_warm}) {
    EXPECT_EQ(o->stats.candidates_initial, build.candidates_initial);
    EXPECT_EQ(o->stats.candidates_pruned, build.candidates_pruned);
  }
}

TEST(QueryEngineTest, CacheAdmissionOptOut) {
  Graph g = MakeGraph(13);
  std::vector<Pattern> patterns = MakePatterns(g, 1);
  ASSERT_FALSE(patterns.empty());
  QueryEngine engine(&g);
  QuerySpec spec;
  spec.pattern = patterns[0];
  spec.share_cache = false;
  auto outcome = engine.Submit(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->cache_hits, 0u);
  EXPECT_EQ(outcome->cache_misses, 0u);
  EXPECT_EQ(engine.cache().size(), 0u) << "opted-out query polluted the pool";

  // Same query with admission: identical answers, real misses.
  spec.share_cache = true;
  auto shared = engine.Submit(spec);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->answers, outcome->answers);
  EXPECT_GT(shared->cache_misses, 0u);
  EXPECT_GT(engine.cache().size(), 0u);
}

TEST(QueryEngineTest, PressurePolicyEvicts) {
  Graph g = MakeGraph(17);
  std::vector<Pattern> patterns = MakePatterns(g, 6, /*num_negated=*/1);
  ASSERT_GE(patterns.size(), 3u);
  EngineOptions opts;
  opts.cache_max_entries = 1;  // evict after nearly every query
  QueryEngine bounded(&g, opts);
  QueryEngine unbounded(&g);
  for (const Pattern& q : patterns) {
    QuerySpec spec;
    spec.pattern = q;
    auto b = bounded.Submit(spec);
    auto u = unbounded.Submit(spec);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(u.ok());
    EXPECT_EQ(b->answers, u->answers)
        << "eviction pressure changed answers: " << q.ToString(&g.dict());
  }
  EXPECT_GT(bounded.stats().cache_evicted, 0u);
  EXPECT_LE(bounded.cache().size(), unbounded.cache().size());
}

TEST(QueryEngineTest, ExplicitEvictUnusedIsCounted) {
  Graph g = MakeGraph(19);
  std::vector<Pattern> patterns = MakePatterns(g, 1);
  ASSERT_FALSE(patterns.empty());
  QueryEngine engine(&g);
  QuerySpec spec;
  spec.pattern = patterns[0];
  ASSERT_TRUE(engine.Submit(spec).ok());
  const size_t interned = engine.cache().size();
  ASSERT_GT(interned, 0u);
  EXPECT_EQ(engine.EvictUnused(), interned);
  EXPECT_EQ(engine.cache().size(), 0u);
  EXPECT_EQ(engine.stats().cache_evicted, interned);
}

TEST(QueryEngineTest, ResultCacheServesRepeatsIdentically) {
  Graph g = MakeGraph(31);
  std::vector<Pattern> patterns = MakePatterns(g, 3);
  ASSERT_GE(patterns.size(), 2u);
  EngineOptions opts;
  opts.enable_result_cache = true;
  QueryEngine engine(&g, opts);
  for (const Pattern& q : patterns) {
    QuerySpec spec;
    spec.pattern = q;
    auto first = engine.Submit(spec);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first->result_cache_hit);
    auto repeat = engine.Submit(spec);
    ASSERT_TRUE(repeat.ok());
    EXPECT_TRUE(repeat->result_cache_hit);
    EXPECT_EQ(repeat->answers, first->answers);
    // A hit replays the original run's work counters exactly.
    testing::ExpectSameWork(repeat->stats, first->stats);
    // Same pattern under different options is a different key.
    spec.options.use_quantifier_pruning = false;
    auto other_options = engine.Submit(spec);
    ASSERT_TRUE(other_options.ok());
    EXPECT_FALSE(other_options->result_cache_hit);
    EXPECT_EQ(other_options->answers, first->answers);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.result_hits, patterns.size());
  EXPECT_EQ(stats.result_misses, 2 * patterns.size());
  EXPECT_GT(stats.ResultHitRatio(), 0.0);
}

// use_incremental_negation is all that separates the QMatchn baseline
// from QMatch, so the result key must keep the two modes apart: the
// baseline run misses and replays its own work, and QMatch's entry
// survives it.
TEST(QueryEngineTest, ResultCacheKeepsNegationModesApart) {
  Graph g = MakeGraph(43);
  std::vector<Pattern> patterns = MakePatterns(g, 3);
  ASSERT_FALSE(patterns.empty());
  EngineOptions opts;
  opts.enable_result_cache = true;
  QueryEngine engine(&g, opts);
  size_t checked = 0;
  for (const Pattern& q : patterns) {
    if (q.IsPositive()) continue;
    SCOPED_TRACE(q.ToString(&g.dict()));
    QuerySpec spec;
    spec.pattern = q;
    spec.algo = EngineAlgo::kQMatch;
    auto incremental = engine.Submit(spec);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_FALSE(incremental->result_cache_hit);

    spec.options.use_incremental_negation = false;
    auto naive = engine.Submit(spec);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_FALSE(naive->result_cache_hit);
    EXPECT_EQ(naive->algo, EngineAlgo::kQMatch);
    MatchStats standalone_stats;
    auto standalone =
        QMatch::Evaluate(q, g, spec.options, &standalone_stats);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(naive->answers, standalone.value());
    EXPECT_EQ(naive->answers, incremental->answers);
    testing::ExpectSameWork(naive->stats, standalone_stats);

    spec.options.use_incremental_negation = true;
    auto again = engine.Submit(spec);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again->result_cache_hit);
    EXPECT_EQ(again->answers, incremental->answers);
    testing::ExpectSameWork(again->stats, incremental->stats);
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no negated pattern in the suite";
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.result_hits, checked);
  EXPECT_EQ(stats.result_misses, 2 * checked);
}

TEST(QueryEngineTest, ResultCacheLruEvictsAndClearWorks) {
  Graph g = MakeGraph(37);
  std::vector<Pattern> patterns = MakePatterns(g, 4);
  ASSERT_GE(patterns.size(), 3u);
  EngineOptions opts;
  opts.enable_result_cache = true;
  opts.result_cache_max_entries = 2;
  QueryEngine engine(&g, opts);
  auto submit = [&](const Pattern& q) {
    QuerySpec spec;
    spec.pattern = q;
    auto outcome = engine.Submit(spec);
    ASSERT_TRUE(outcome.ok());
  };
  submit(patterns[0]);
  submit(patterns[1]);
  submit(patterns[2]);  // capacity 2: evicts patterns[0]
  QuerySpec spec;
  spec.pattern = patterns[0];
  auto evicted = engine.Submit(spec);
  ASSERT_TRUE(evicted.ok());
  EXPECT_FALSE(evicted->result_cache_hit) << "LRU entry should be gone";
  spec.pattern = patterns[2];
  auto kept = engine.Submit(spec);
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->result_cache_hit);

  EXPECT_EQ(engine.ClearResultCache(), 2u);
  auto after_clear = engine.Submit(spec);
  ASSERT_TRUE(after_clear.ok());
  EXPECT_FALSE(after_clear->result_cache_hit);
  EXPECT_EQ(after_clear->answers, kept->answers);
}

TEST(QueryEngineTest, ResultCacheBoundaryAtSingleEntry) {
  // Capacity one is the LRU degenerate case: every distinct query evicts
  // the previous resident, and only back-to-back repeats may hit.
  Graph g = MakeGraph(41);
  std::vector<Pattern> patterns = MakePatterns(g, 3);
  ASSERT_GE(patterns.size(), 2u);
  EngineOptions opts;
  opts.enable_result_cache = true;
  opts.result_cache_max_entries = 1;
  QueryEngine engine(&g, opts);
  auto submit = [&](const Pattern& q) {
    QuerySpec spec;
    spec.pattern = q;
    auto outcome = engine.Submit(spec);
    EXPECT_TRUE(outcome.ok());
    return outcome->result_cache_hit;
  };
  EXPECT_FALSE(submit(patterns[0]));  // cold: stored
  EXPECT_TRUE(submit(patterns[0]));   // resident
  EXPECT_FALSE(submit(patterns[1]));  // evicts patterns[0]
  EXPECT_FALSE(submit(patterns[0]));  // gone: re-stored, evicts patterns[1]
  EXPECT_TRUE(submit(patterns[0]));   // resident again
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.result_hits, 2u);
  EXPECT_EQ(stats.result_misses, 3u);
}

TEST(QueryEngineTest, FailuresFeedWallClockCacheTrafficAndPressure) {
  // An error-heavy workload is load too: each failed evaluation must add
  // its wall time and candidate-cache traffic to the cumulative stats,
  // and the pressure valve must keep the cache at its bound even when no
  // query ever succeeds.
  Graph g = MakeGraph(43);
  std::vector<Pattern> patterns = MakePatterns(g, 6);
  ASSERT_FALSE(patterns.empty());
  EngineOptions opts;
  opts.cache_max_entries = 1;
  QueryEngine engine(&g, opts);
  // Every evaluation fails after its candidate space is built, so each
  // one has interned sets before it errors out.
  failpoint::Action fail;
  fail.kind = failpoint::Action::Kind::kError;
  failpoint::Arm("qmatch.verify", fail);
  size_t failures = 0;
  for (const Pattern& q : patterns) {
    QuerySpec spec;
    spec.pattern = q;
    const double wall_before = engine.stats().wall_ms;
    auto outcome = engine.Submit(spec);
    if (outcome.ok()) continue;
    ++failures;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
    EXPECT_GT(engine.stats().wall_ms, wall_before)
        << "failed evaluation did not report its wall time";
  }
  failpoint::DisarmAll();
  ASSERT_EQ(failures, patterns.size());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.failed, failures);
  EXPECT_GT(stats.cache_misses, 0u)
      << "failures built candidates but reported no cache traffic";
  EXPECT_GT(stats.cache_evicted, 0u)
      << "pressure valve never ran on the failure path";
  EXPECT_LE(engine.cache().size(), opts.cache_max_entries);

  // The engine keeps serving after a failing streak.
  QuerySpec spec;
  spec.pattern = patterns[0];
  EXPECT_TRUE(engine.Submit(spec).ok());
}

TEST(QueryEngineTest, RunBatchEqualsSubmits) {
  Graph g = MakeGraph(23);
  std::vector<Pattern> patterns = MakePatterns(g, 4);
  ASSERT_GE(patterns.size(), 2u);
  std::vector<QuerySpec> batch;
  for (size_t i = 0; i < patterns.size(); ++i) {
    QuerySpec spec;
    spec.pattern = patterns[i];
    spec.tag = "q" + std::to_string(i);
    batch.push_back(std::move(spec));
  }
  QueryEngine batched(&g);
  auto outcomes = batched.RunBatch(batch);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());

  QueryEngine streamed(&g);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto one = streamed.Submit(batch[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ((*outcomes)[i].answers, one->answers);
    EXPECT_EQ((*outcomes)[i].tag, batch[i].tag);
  }
  EXPECT_EQ(batched.stats().queries, streamed.stats().queries);
  EXPECT_EQ(batched.stats().cache_hits, streamed.stats().cache_hits);
}

TEST(QueryEngineTest, OwningConstructorServesQueries) {
  Graph g = MakeGraph(29);
  std::vector<Pattern> patterns = MakePatterns(g, 1);
  ASSERT_FALSE(patterns.empty());
  auto standalone = QMatch::Evaluate(patterns[0], g);
  ASSERT_TRUE(standalone.ok());
  QueryEngine engine(std::move(g));  // engine owns the graph now
  QuerySpec spec;
  spec.pattern = patterns[0];
  auto outcome = engine.Submit(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->answers, standalone.value());
  EXPECT_GT(engine.graph().num_vertices(), 0u);
}

}  // namespace
}  // namespace qgp
