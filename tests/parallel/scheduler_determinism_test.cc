// Differential lockdown for the work-stealing match scheduler: across
// seeded SKEWED workloads (power-law graphs, so one hub focus dwarfs the
// rest — exactly the shape the scheduler exists for), answers and every
// WORK counter must be byte-identical to the serial schedule at threads
// {1, 2, 4, 8}, both at the default chunk grain and under forced-steal
// stress (grain 1: every focus is its own stealable task). The same
// contract covers pool-parallelized DPar (the partition must be
// IDENTICAL to the serial build) and the stealable fragment scheduling
// of PQMatch/PEnum. Only the scheduler telemetry (scheduler_tasks /
// scheduler_steals) may vary with the schedule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "parallel/dpar.h"
#include "parallel/penum.h"
#include "parallel/pqmatch.h"

namespace qgp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

// Power-law graphs: hub degrees dwarf the median, so the largest-first
// focus order and the stealable fragment tasks actually rebalance
// something rather than degenerate to the uniform case.
Graph SkewedGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 140 + seed % 61;
  gc.num_edges = 520 + (seed % 7) * 40;
  gc.num_node_labels = 4 + seed % 3;
  gc.num_edge_labels = 3;
  gc.model = SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

std::vector<Pattern> SkewedPatterns(const Graph& g, uint64_t seed) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4 + seed % 2;
  pc.num_quantified = 1 + seed % 2;
  pc.kind = (seed % 2 == 0) ? QuantKind::kRatio : QuantKind::kNumeric;
  pc.op = QuantOp::kGe;
  pc.percent = 30.0 + 20.0 * (seed % 2);
  pc.count = 1 + seed % 2;
  pc.num_negated = seed % 2;
  return GeneratePatternSuite(g, 3, pc, seed * 131 + 7);
}

// Every counter that describes WORK (not the schedule) must match.
void ExpectWorkStatsEqual(const MatchStats& a, const MatchStats& b,
                          const std::string& what) {
  EXPECT_EQ(a.isomorphisms_enumerated, b.isomorphisms_enumerated) << what;
  EXPECT_EQ(a.witness_searches, b.witness_searches) << what;
  EXPECT_EQ(a.search_extensions, b.search_extensions) << what;
  EXPECT_EQ(a.candidates_initial, b.candidates_initial) << what;
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned) << what;
  EXPECT_EQ(a.focus_candidates_checked, b.focus_candidates_checked) << what;
  EXPECT_EQ(a.inc_candidates_checked, b.inc_candidates_checked) << what;
  EXPECT_EQ(a.balls_built, b.balls_built) << what;
}

void ExpectPartitionsIdentical(const Partition& a, const Partition& b) {
  ASSERT_EQ(a.d, b.d);
  EXPECT_EQ(a.num_border_nodes, b.num_border_nodes);
  EXPECT_EQ(a.base_region, b.base_region);
  ASSERT_EQ(a.fragments.size(), b.fragments.size());
  for (size_t i = 0; i < a.fragments.size(); ++i) {
    SCOPED_TRACE("fragment " + std::to_string(i));
    EXPECT_EQ(a.fragments[i].owned_global, b.fragments[i].owned_global);
    EXPECT_EQ(a.fragments[i].owned_local, b.fragments[i].owned_local);
    EXPECT_EQ(a.fragments[i].sub.local_to_global,
              b.fragments[i].sub.local_to_global);
    EXPECT_EQ(a.fragments[i].sub.graph.num_vertices(),
              b.fragments[i].sub.graph.num_vertices());
    EXPECT_EQ(a.fragments[i].sub.graph.num_edges(),
              b.fragments[i].sub.graph.num_edges());
  }
}

// QMatch through the work-stealing focus map: answers AND work counters
// identical to the serial schedule at every thread count, at the default
// grain and under forced-steal stress (grain 1).
TEST(SchedulerDeterminismTest, QMatchAnswersAndStatsMatchSerial) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = SkewedGraph(seed);
    std::vector<Pattern> patterns = SkewedPatterns(g, seed);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const Pattern& q = patterns[p];
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(p));
      MatchStats serial_stats;
      auto serial = QMatch::Evaluate(q, g, {}, &serial_stats);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (size_t threads : kThreadCounts) {
        for (size_t grain : {size_t{0}, size_t{1}}) {
          ThreadPool pool(threads);
          MatchOptions opts;
          opts.scheduler_grain = grain;
          MatchStats par_stats;
          auto par = QMatch::Evaluate(q, g, opts, &par_stats, &pool);
          ASSERT_TRUE(par.ok()) << par.status().ToString();
          const std::string what = "threads=" + std::to_string(threads) +
                                   " grain=" + std::to_string(grain);
          EXPECT_EQ(serial.value(), par.value()) << what;
          ExpectWorkStatsEqual(serial_stats, par_stats, what);
        }
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 20u);
}

// Pool-parallelized DPar partitioning == serial DPar, at every thread
// count, for several d values. DParExtend widening must agree with a
// from-scratch DPar at the wider d, pool or no pool.
TEST(SchedulerDeterminismTest, ParallelDParIsIdenticalToSerial) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = SkewedGraph(seed * 17 + 3);
    for (int d : {1, 2, 3}) {
      DParConfig dc;
      dc.num_fragments = 3 + seed % 3;
      dc.d = d;
      SCOPED_TRACE("seed " + std::to_string(seed) + " d=" +
                   std::to_string(d) + " n=" +
                   std::to_string(dc.num_fragments));
      auto serial = DPar(g, dc);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_TRUE(serial->Validate(g).ok());
      for (size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        auto par = DPar(g, dc, nullptr, &pool);
        ASSERT_TRUE(par.ok()) << par.status().ToString();
        ExpectPartitionsIdentical(*serial, *par);
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 15u);

  // Extend path: serial extend == pool extend.
  Graph g = SkewedGraph(41);
  DParConfig dc;
  dc.num_fragments = 4;
  dc.d = 1;
  auto base = DPar(g, dc);
  ASSERT_TRUE(base.ok());
  auto wide_serial = DParExtend(g, *base, 2);
  ASSERT_TRUE(wide_serial.ok());
  ThreadPool pool(4);
  auto wide_par = DParExtend(g, *base, 2, 1.6, &pool);
  ASSERT_TRUE(wide_par.ok());
  ExpectPartitionsIdentical(*wide_serial, *wide_par);
}

// PQMatch/PEnum through the stealable fragment schedule: thread mode
// (fragments fanned out on pools of width {1, 2, 4, 8}) and simulated
// mode (sequential spec) must return identical answers and work stats,
// and both must equal sequential QMatch over the whole graph.
TEST(SchedulerDeterminismTest, StealableFragmentScheduleMatchesSimulated) {
  size_t compared = 0;
  for (uint64_t seed = 2; seed <= 7; ++seed) {
    Graph g = SkewedGraph(seed * 29 + 1);
    DParConfig dc;
    dc.num_fragments = 4;
    dc.d = 2;
    auto part = DPar(g, dc);
    ASSERT_TRUE(part.ok());
    std::vector<Pattern> patterns = SkewedPatterns(g, seed + 50);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const Pattern& q = patterns[p];
      if (q.Radius() > dc.d) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(p));
      auto sequential = QMatch::Evaluate(q, g);
      ASSERT_TRUE(sequential.ok());
      ParallelConfig sim;
      sim.mode = ExecutionMode::kSimulated;
      for (const bool enum_based : {false, true}) {
        auto a = enum_based ? PEnum::Evaluate(q, *part, sim)
                            : PQMatch::Evaluate(q, *part, sim);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        EXPECT_EQ(a->answers, sequential.value());
        for (size_t width : kThreadCounts) {
          const std::string what =
              std::string(enum_based ? "penum" : "pqmatch") + " width " +
              std::to_string(width);
          ThreadPool pool(width);
          ParallelConfig thr;
          thr.mode = ExecutionMode::kThreads;
          thr.pool = &pool;
          auto b = enum_based ? PEnum::Evaluate(q, *part, thr)
                              : PQMatch::Evaluate(q, *part, thr);
          ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
          EXPECT_EQ(b->answers, a->answers) << what;
          ExpectWorkStatsEqual(a->stats, b->stats, what);
        }
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 8u);
}

}  // namespace
}  // namespace qgp
