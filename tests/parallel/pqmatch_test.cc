// Lemma 9(1) in executable form: over a d-hop preserving partition, the
// parallel matchers must return exactly the sequential answers, for both
// worker-execution modes, positive and negative patterns. Also the
// fragment runner's schedule: each fragment once, heaviest first, and
// the simulated n-machine makespan.
#include "parallel/pqmatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_builder.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"

namespace qgp {
namespace {

Graph SocialGraph() {
  SocialConfig c;
  c.num_users = 700;
  c.community_size = 120;
  return std::move(GenerateSocialGraph(c)).value();
}

TEST(PQMatchTest, EquivalentToSequentialOnGeneratedPatterns) {
  Graph g = SocialGraph();
  DParConfig dc;
  dc.num_fragments = 4;
  dc.d = 2;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  ASSERT_TRUE(part->Validate(g).ok());

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.percent = 40.0;
  pc.num_negated = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 4, pc, 13);
  ASSERT_FALSE(patterns.empty());

  ParallelConfig cfg;
  size_t usable = 0;
  for (const Pattern& q : patterns) {
    if (q.Radius() > dc.d) continue;
    ++usable;
    auto sequential = QMatch::Evaluate(q, g);
    ASSERT_TRUE(sequential.ok());
    auto parallel = PQMatch::Evaluate(q, *part, cfg);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->answers, sequential.value());
  }
  EXPECT_GT(usable, 0u);
}

TEST(PQMatchTest, ThreadModeMatchesSimulatedMode) {
  Graph g = SocialGraph();
  DParConfig dc;
  dc.num_fragments = 3;
  dc.d = 2;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());

  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.num_negated = 0;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 2, pc, 31);
  ASSERT_FALSE(patterns.empty());
  for (const Pattern& q : patterns) {
    if (q.Radius() > dc.d) continue;
    ThreadPool pool(2);
    ParallelConfig sim;
    sim.mode = ExecutionMode::kSimulated;
    sim.pool = &pool;
    ParallelConfig thr;
    thr.mode = ExecutionMode::kThreads;
    thr.pool = &pool;
    auto a = PQMatch::Evaluate(q, *part, sim);
    auto b = PQMatch::Evaluate(q, *part, thr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->answers, b->answers);
  }
}

TEST(PQMatchTest, RejectsPatternWiderThanD) {
  Graph g = SocialGraph();
  DParConfig dc;
  dc.num_fragments = 2;
  dc.d = 1;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  // A 2-hop chain pattern has radius 2 > d = 1.
  LabelDict& dict = g.mutable_dict();
  Pattern q;
  PatternNodeId a = q.AddNode(dict.Intern("person"), "a");
  PatternNodeId b = q.AddNode(dict.Intern("person"), "b");
  PatternNodeId c = q.AddNode(dict.Intern("person"), "c");
  (void)q.AddEdge(a, b, dict.Intern("follow"));
  (void)q.AddEdge(b, c, dict.Intern("follow"));
  (void)q.set_focus(a);
  ParallelConfig cfg;
  auto res = PQMatch::Evaluate(q, *part, cfg);
  EXPECT_FALSE(res.ok());
  // DParExtend repairs it.
  auto wider = DParExtend(g, *part, 2);
  ASSERT_TRUE(wider.ok());
  auto res2 = PQMatch::Evaluate(q, *wider, cfg);
  EXPECT_TRUE(res2.ok());
}

TEST(PQMatchTest, TimingFieldsPopulated) {
  Graph g = SocialGraph();
  DParConfig dc;
  dc.num_fragments = 4;
  dc.d = 2;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 3;
  pc.num_quantified = 1;
  pc.num_negated = 0;
  auto patterns = GeneratePatternSuite(g, 1, pc, 41);
  ASSERT_FALSE(patterns.empty());
  ParallelConfig cfg;
  auto res = PQMatch::Evaluate(patterns[0], *part, cfg);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->fragment_seconds.size(), 4u);
  EXPECT_GE(res->parallel_seconds, 0.0);
  EXPECT_GE(res->total_work_seconds,
            *std::max_element(res->fragment_seconds.begin(),
                              res->fragment_seconds.end()));
}

TEST(PEnumTest, EquivalentToQMatchAndPQMatch) {
  Graph g = SocialGraph();
  DParConfig dc;
  dc.num_fragments = 3;
  dc.d = 2;
  auto part = DPar(g, dc);
  ASSERT_TRUE(part.ok());
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.percent = 40.0;
  pc.num_negated = 1;
  std::vector<Pattern> patterns = GeneratePatternSuite(g, 3, pc, 53);
  ASSERT_FALSE(patterns.empty());
  ParallelConfig cfg;
  size_t usable = 0;
  for (const Pattern& q : patterns) {
    if (q.Radius() > dc.d) continue;
    ++usable;
    auto sequential = QMatch::Evaluate(q, g);
    auto penum = PEnum::Evaluate(q, *part, cfg);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(penum.ok()) << penum.status().ToString();
    EXPECT_EQ(penum->answers, sequential.value());
  }
  EXPECT_GT(usable, 0u);
}

// RunFragments' worker set: one logical worker per fragment, scheduled
// heaviest |Fi| first. The partitions below are synthetic: fragment i
// is sizes[i] isolated vertices (|Fi| = sizes[i]) owning its local
// vertex 0, global id i, and the evaluator records which fragments ran.
Partition SizedPartition(const std::vector<size_t>& sizes) {
  Partition p;
  p.d = 1;
  for (size_t i = 0; i < sizes.size(); ++i) {
    GraphBuilder builder;
    for (size_t v = 0; v < sizes[i]; ++v) builder.AddVertex("n");
    Fragment f;
    f.sub.graph = std::move(builder).Build().value();
    f.sub.local_to_global.assign(sizes[i], kInvalidVertex);
    f.sub.local_to_global[0] = static_cast<VertexId>(i);
    f.owned_local = {0};
    f.owned_global = {static_cast<VertexId>(i)};
    p.fragments.push_back(std::move(f));
  }
  return p;
}

Pattern OneNodePattern() {
  Pattern q;
  (void)q.AddNode(0, "x");
  (void)q.set_focus(0);
  return q;
}

// Runs RunFragments with an evaluator that answers each fragment's owned
// vertex and calls `on_fragment` with the fragment's index.
Result<ParallelRunResult> RunRecorded(
    const Partition& p, ExecutionMode mode, ThreadPool* pool,
    const std::function<void(size_t)>& on_fragment) {
  ParallelConfig config;
  config.mode = mode;
  config.pool = pool;
  return RunFragments(
      OneNodePattern(), p, config,
      [&](const Fragment& f, MatchStats*) -> Result<AnswerSet> {
        on_fragment(f.owned_global[0]);
        return AnswerSet{0};
      });
}

AnswerSet Iota(size_t n) {
  AnswerSet all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<VertexId>(i);
  return all;
}

TEST(WorkerSetTest, SimulatedModeRunsEachWorkerExactlyOnceInOrder) {
  const Partition p = SizedPartition({3, 3, 3, 3});
  ThreadPool pool(4);  // ignored by kSimulated
  std::vector<size_t> order;
  auto res = RunRecorded(p, ExecutionMode::kSimulated, &pool,
                         [&](size_t i) { order.push_back(i); });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(res->fragment_seconds.size(), 4u);
  EXPECT_EQ(res->answers, Iota(4));
  EXPECT_EQ(res->stats.scheduler_tasks, 0u);  // inline: nothing dispatched
}

TEST(WorkerSetTest, ThreadModeRunsEachWorkerExactlyOnce) {
  const Partition p = SizedPartition({2, 2, 2, 2, 2, 2, 2, 2});
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8);
  auto res = RunRecorded(p, ExecutionMode::kThreads, &pool,
                         [&](size_t i) { hits[i].fetch_add(1); });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(res->fragment_seconds.size(), 8u);
  EXPECT_EQ(res->answers, Iota(8));
  EXPECT_EQ(res->stats.scheduler_tasks, 8u);  // one chunk per fragment
}

// Heaviest first: on a null pool the kThreads fan-out runs inline, so
// the run order is exactly the |Fi| order (ties by index).
TEST(WorkerSetTest, ThreadModeRunsHeaviestFirst) {
  const Partition p = SizedPartition({5, 9, 5, 7});
  std::vector<size_t> order;
  auto res = RunRecorded(p, ExecutionMode::kThreads, nullptr,
                         [&](size_t i) { order.push_back(i); });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 0, 2}));
  EXPECT_EQ(res->stats.scheduler_tasks, 0u);  // inline: nothing dispatched
}

TEST(WorkerSetTest, RunJoinsBeforeReturning) {
  // After RunFragments returns, every evaluator call must have completed:
  // a still-running one would see `done` flip and fail.
  const Partition p = SizedPartition({1, 1, 1, 1});
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::atomic<bool> done{false};
  auto res = RunRecorded(p, ExecutionMode::kThreads, &pool, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(done.load());
    completed.fetch_add(1);
  });
  done.store(true);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(completed.load(), 4);
}

TEST(WorkerSetTest, ReportTotalsAreConsistent) {
  const Partition p = SizedPartition({1, 1, 1});
  ThreadPool pool(3);
  for (ExecutionMode mode :
       {ExecutionMode::kSimulated, ExecutionMode::kThreads}) {
    WallTimer wall;
    auto res = RunRecorded(p, mode, &pool, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    const double elapsed = wall.ElapsedSeconds();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->fragment_seconds.size(), 3u);
    double max_s = 0, sum_s = 0;
    for (double s : res->fragment_seconds) {
      EXPECT_GT(s, 0.0);
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    EXPECT_DOUBLE_EQ(res->total_work_seconds, sum_s);
    EXPECT_GE(res->parallel_seconds, res->coordinator_seconds);
    EXPECT_LE(res->parallel_seconds, elapsed);
    if (mode == ExecutionMode::kSimulated) {
      // The paper's n-machine time: the slowest fragment plus assembly.
      EXPECT_DOUBLE_EQ(res->parallel_seconds,
                       max_s + res->coordinator_seconds);
    }
  }
}

TEST(WorkerSetTest, IsReusableAcrossRuns) {
  const Partition p = SizedPartition({2, 2});
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 3; ++round) {
    auto res = RunRecorded(p, ExecutionMode::kThreads, &pool,
                           [&](size_t) { total.fetch_add(1); });
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->fragment_seconds.size(), 2u);
    EXPECT_EQ(res->answers, Iota(2));
  }
  EXPECT_EQ(total.load(), 6);
}

TEST(WorkerSetTest, ZeroWorkersIsANoOp) {
  const Partition p = SizedPartition({});
  std::atomic<int> calls{0};
  auto res = RunRecorded(p, ExecutionMode::kSimulated, nullptr,
                         [&](size_t) { calls.fetch_add(1); });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(res->answers.empty());
  EXPECT_TRUE(res->fragment_seconds.empty());
  EXPECT_DOUBLE_EQ(res->total_work_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res->parallel_seconds, res->coordinator_seconds);
}

TEST(WorkerSetTest, SingleWorkerThreadModeWorks) {
  const Partition p = SizedPartition({4});
  ThreadPool pool(2);
  std::set<size_t> seen;
  auto res = RunRecorded(p, ExecutionMode::kThreads, &pool, [&](size_t i) {
    seen.insert(i);  // single fragment: no concurrent mutation
  });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(seen, (std::set<size_t>{0}));
  EXPECT_EQ(res->fragment_seconds.size(), 1u);
  EXPECT_EQ(res->answers, Iota(1));
}

TEST(WorkerSetTest, SimulatedMakespanIsMaxWorkerTime) {
  const Partition p = SizedPartition({3, 1, 2});
  auto res = RunRecorded(p, ExecutionMode::kSimulated, nullptr, [](size_t) {});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->fragment_seconds.size(), 3u);
  const double max_time = *std::max_element(res->fragment_seconds.begin(),
                                            res->fragment_seconds.end());
  EXPECT_DOUBLE_EQ(res->parallel_seconds, max_time + res->coordinator_seconds);
}

TEST(WorkerSetTest, ThreadModeRunsAllWorkers) {
  const Partition p = SizedPartition({1, 2, 3, 4});
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4);
  auto res = RunRecorded(p, ExecutionMode::kThreads, &pool,
                         [&](size_t i) { hits[i].fetch_add(1); });
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(res->parallel_seconds, 0.0);
}

}  // namespace
}  // namespace qgp
