// Engine monitoring-under-load suite: telemetry and maintenance entry
// points (stats / EvictUnused) must never stall
// behind a running evaluation — they live behind their own short-held
// leaf locks, not the admission lock. The suite drives them
// concurrently with long Submit batches (the TSan CI leg runs it via
// the `scheduler` label) and pins down the latency contract: a stats()
// snapshot completes in well under a millisecond while a multi-second
// batch holds the admission lock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "testing/self_sizing.h"

namespace qgp {
namespace {

Graph MakeGraph(uint64_t seed, size_t vertices) {
  SyntheticConfig gc;
  gc.num_vertices = vertices;
  gc.num_edges = vertices * 3;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

std::vector<QuerySpec> MakeWorkload(Graph& g, uint64_t seed, size_t repeats) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 5;
  pc.num_quantified = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 5, pc, seed);
  std::vector<QuerySpec> workload;
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      QuerySpec spec;
      spec.pattern = patterns[i];
      spec.algo = EngineAlgo::kQMatch;
      // Odd entries run the QMatchn baseline.
      spec.options.use_incremental_negation = (i % 2 == 0);
      spec.tag = "q" + std::to_string(i);
      workload.push_back(std::move(spec));
    }
  }
  return workload;
}

// The latency contract: while a long RunBatch holds the admission lock,
// stats() still answers in sub-millisecond time. The minimum over many
// samples is the robust statistic (scheduler preemption inflates the
// max, never the min), and the batch-still-running flag proves every
// sample really raced a held admission lock.
TEST(EngineConcurrencyTest, StatsIsSubMillisecondWhileBatchRuns) {
  Graph g = MakeGraph(7, 400);
  // Sized once per process: a clean run of the batch must outlast the
  // sampling window (up to 200 samples 1 ms apart) twice over.
  const size_t repeats = testing::GrowUntilSlow(
      60, 250.0,
      [&](size_t r) {
        QueryEngine engine(&g, EngineOptions{});
        const std::vector<QuerySpec> batch = MakeWorkload(g, 7, r);
        return testing::TimeMs([&] { (void)engine.RunBatch(batch); });
      },
      /*trials=*/1);
  std::vector<QuerySpec> workload = MakeWorkload(g, 7, repeats);
  QueryEngine engine(&g, EngineOptions{});

  std::atomic<bool> batch_done{false};
  std::thread batch([&] {
    auto outcomes = engine.RunBatch(workload);
    EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    batch_done.store(true);
  });

  // Wait until evaluation work is observably underway.
  while (engine.stats().queries == 0 && !batch_done.load()) {
    std::this_thread::yield();
  }

  using Clock = std::chrono::steady_clock;
  auto min_latency = std::chrono::nanoseconds::max();
  size_t samples_during_batch = 0;
  while (!batch_done.load() && samples_during_batch < 200) {
    const auto t0 = Clock::now();
    const EngineStats snapshot = engine.stats();
    const auto dt = Clock::now() - t0;
    if (batch_done.load()) break;  // sample may not have raced the lock
    ++samples_during_batch;
    if (dt < min_latency) min_latency = dt;
    EXPECT_LE(snapshot.queries, workload.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  batch.join();

  ASSERT_GT(samples_during_batch, 0u)
      << "batch finished before any stats sample - widen the workload";
  EXPECT_LT(min_latency, std::chrono::milliseconds(1))
      << "stats() is stalling behind the admission lock";
  EXPECT_EQ(engine.stats().queries, workload.size());
}

// Monitoring and maintenance from many threads concurrent with
// evaluation: no deadlock, no lost counts, and (under the TSan leg) no
// data races. EvictUnused, which also drops stored results, interleaves
// with Submits and result-cache probes without perturbing answers —
// each query's answers are compared against a serial reference run.
TEST(EngineConcurrencyTest, MaintenanceRacesEvaluationSafely) {
  Graph g = MakeGraph(13, 120);
  std::vector<QuerySpec> workload = MakeWorkload(g, 13, 4);

  // Serial reference on a separate engine.
  QueryEngine reference(&g, EngineOptions{});
  auto expected = reference.RunBatch(workload);
  ASSERT_TRUE(expected.ok());

  EngineOptions opts;
  opts.enable_result_cache = true;
  QueryEngine engine(&g, opts);
  std::atomic<bool> stop{false};

  std::thread monitor([&] {
    while (!stop.load()) {
      const EngineStats s = engine.stats();
      EXPECT_EQ(s.failed, 0u);
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    while (!stop.load()) {
      engine.EvictUnused();
      std::this_thread::yield();
    }
  });

  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < workload.size(); ++i) {
        auto outcome = engine.Submit(workload[i]);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_EQ(outcome->answers, (*expected)[i].answers)
            << workload[i].tag;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  monitor.join();
  evictor.join();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, kClients * workload.size());
  EXPECT_EQ(stats.failed, 0u);
}

// ApplyDelta racing Submit / stats() / EvictUnused(): deltas sequence
// through the admission lock, so every concurrently submitted query
// must see entirely one of the graph versions — its answers equal the
// serial reference of SOME version the query could have run under
// (bracketed by graph_version() reads before and after), never a blend.
// The TSan leg additionally proves the version mirror and telemetry
// paths race-free.
TEST(EngineConcurrencyTest, DeltaRacesEvaluationAtomically) {
  Graph base = MakeGraph(21, 120);
  std::vector<QuerySpec> workload = MakeWorkload(base, 21, 1);

  // Precompute the version chain and each version's reference answers.
  constexpr size_t kDeltas = 4;
  const Label el0 = base.dict().Find("el0");
  const Label nl0 = base.dict().Find("nl0");
  std::vector<GraphDelta> deltas;
  {
    std::mt19937 rng(17);
    Graph cursor = base;
    for (size_t k = 0; k < kDeltas; ++k) {
      std::vector<VertexId> alive;
      for (VertexId v = 0; v < cursor.num_vertices(); ++v) {
        if (cursor.vertex_label(v) != kInvalidLabel) alive.push_back(v);
      }
      GraphDelta d;
      for (int i = 0; i < 6; ++i) {
        d.add_edges.push_back({alive[rng() % alive.size()],
                               alive[rng() % alive.size()], el0});
      }
      d.remove_vertices.push_back(alive[rng() % alive.size()]);
      d.add_vertices.push_back(nl0);
      ASSERT_TRUE(cursor.ApplyDelta(d).ok());
      deltas.push_back(std::move(d));
    }
  }
  std::vector<std::vector<AnswerSet>> per_version;  // [version][query]
  {
    Graph cursor = base;
    for (size_t k = 0; k <= kDeltas; ++k) {
      QueryEngine reference(&cursor, EngineOptions{});
      auto outcomes = reference.RunBatch(workload);
      ASSERT_TRUE(outcomes.ok());
      std::vector<AnswerSet> answers;
      for (const QueryOutcome& o : *outcomes) answers.push_back(o.answers);
      per_version.push_back(std::move(answers));
      if (k < kDeltas) {
        ASSERT_TRUE(cursor.ApplyDelta(deltas[k]).ok());
      }
    }
  }

  QueryEngine engine(std::move(base), EngineOptions{});
  const uint64_t v0 = engine.graph_version();
  std::atomic<bool> stop{false};

  std::thread monitor([&] {
    while (!stop.load()) {
      const EngineStats s = engine.stats();
      EXPECT_EQ(s.failed, 0u);
      EXPECT_LE(engine.graph_version() - v0, kDeltas);
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    while (!stop.load()) {
      engine.EvictUnused();
      std::this_thread::yield();
    }
  });
  std::thread mutator([&] {
    for (const GraphDelta& d : deltas) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      auto outcome = engine.ApplyDelta(d);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
  });

  auto check_round = [&] {
    for (size_t i = 0; i < workload.size(); ++i) {
      const uint64_t before = engine.graph_version() - v0;
      auto outcome = engine.Submit(workload[i]);
      const uint64_t after = engine.graph_version() - v0;
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      bool matched = false;
      for (uint64_t k = before; k <= after && !matched; ++k) {
        matched = outcome->answers == per_version[k][i];
      }
      EXPECT_TRUE(matched)
          << workload[i].tag << " answers match no version in ["
          << before << ", " << after << "]";
    }
  };
  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 8; ++round) check_round();
    });
  }
  for (std::thread& t : clients) t.join();
  mutator.join();
  stop.store(true);
  monitor.join();
  evictor.join();

  // Quiescent: all deltas applied, queries now see the final version.
  EXPECT_EQ(engine.graph_version() - v0, kDeltas);
  for (size_t i = 0; i < workload.size(); ++i) {
    auto outcome = engine.Submit(workload[i]);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->answers, per_version[kDeltas][i]) << workload[i].tag;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deltas, kDeltas);
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace qgp
