// Lemma 9(1) in executable form: over a d-hop preserving partition, the
// parallel matchers must return exactly the sequential answers, for both
// worker-execution modes, positive and negative patterns.
#include "parallel/pqmatch.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "gen/synthetic_gen.h"
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

TEST(WorkerSetTest, SimulatedMakespanIsMaxWorkerTime) {
  WorkerSet workers(3, ExecutionMode::kSimulated);
  auto report = workers.Run([](size_t) { /* trivial */ });
  EXPECT_EQ(report.worker_seconds.size(), 3u);
  double max_time = *std::max_element(report.worker_seconds.begin(),
                                      report.worker_seconds.end());
  EXPECT_DOUBLE_EQ(report.makespan_seconds, max_time);
}

TEST(WorkerSetTest, ThreadModeRunsAllWorkers) {
  ThreadPool pool(2);
  WorkerSet workers(4, ExecutionMode::kThreads, &pool);
  std::vector<std::atomic<int>> hits(4);
  auto report = workers.Run([&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(report.wall_seconds, 0.0);
}

}  // namespace
}  // namespace qgp
