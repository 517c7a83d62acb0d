// MatchStats consistency across the bitset hot paths:
// counters must stay populated, grow monotonically with the focus subset,
// and be bit-identical between ThreadPool and sequential execution.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/dmatch.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

Graph TestGraph() {
  SyntheticConfig gc;
  gc.num_vertices = 220;
  gc.num_edges = 700;
  gc.num_node_labels = 6;
  gc.num_edge_labels = 3;
  gc.seed = 5;
  return std::move(GenerateSynthetic(gc)).value();
}

std::vector<Pattern> TestPatterns(const Graph& g, size_t negated) {
  PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 5;
  pc.num_quantified = 2;
  pc.kind = QuantKind::kRatio;
  pc.op = QuantOp::kGe;
  pc.percent = 40.0;
  pc.num_negated = negated;
  return GeneratePatternSuite(g, 4, pc, 42);
}

TEST(MatchStatsTest, CountersPopulated) {
  Graph g = TestGraph();
  std::vector<Pattern> patterns = TestPatterns(g, 0);
  ASSERT_FALSE(patterns.empty());
  MatchStats stats;
  bool any_answers = false;
  for (const Pattern& q : patterns) {
    auto r = QMatch::Evaluate(q, g, {}, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    any_answers = any_answers || !r->empty();
  }
  ASSERT_TRUE(any_answers) << "workload too weak to exercise the counters";
  EXPECT_GT(stats.focus_candidates_checked, 0u);
  EXPECT_GT(stats.balls_built, 0u);
  EXPECT_GT(stats.search_extensions, 0u);
  EXPECT_GT(stats.isomorphisms_enumerated, 0u);
}

// More focus candidates can only mean more verification work: every
// counter is non-decreasing as the evaluated subset grows.
TEST(MatchStatsTest, MonotonicInFocusSubset) {
  Graph g = TestGraph();
  std::vector<Pattern> patterns = TestPatterns(g, 0);
  ASSERT_FALSE(patterns.empty());
  size_t checked = 0;
  for (const Pattern& q : patterns) {
    auto pi = q.Pi();
    ASSERT_TRUE(pi.ok());
    auto ev = PositiveEvaluator::Create(std::move(pi->first), g, {});
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    const std::span<const VertexId> all = ev->FocusCandidates();
    if (all.size() < 2) continue;
    ++checked;
    std::span<const VertexId> half(all.data(), all.size() / 2);
    MatchStats stats_half;
    MatchStats stats_all;
    ev->EvaluateSubset(half, nullptr, nullptr, &stats_half);
    ev->EvaluateSubset(all, nullptr, nullptr, &stats_all);
    EXPECT_LE(stats_half.focus_candidates_checked,
              stats_all.focus_candidates_checked);
    EXPECT_LE(stats_half.balls_built, stats_all.balls_built);
    EXPECT_LE(stats_half.witness_searches, stats_all.witness_searches);
    EXPECT_LE(stats_half.search_extensions, stats_all.search_extensions);
    EXPECT_LE(stats_half.isomorphisms_enumerated,
              stats_all.isomorphisms_enumerated);
  }
  EXPECT_GT(checked, 0u);
}

// Per-focus verification is independent work; threading must change
// neither the answers nor any work counter, including inc_candidates_checked
// on negated patterns (the IncQMatch path).
TEST(MatchStatsTest, ThreadPoolMatchesSequential) {
  Graph g = TestGraph();
  ThreadPool pool(3);
  for (size_t negated : {size_t{0}, size_t{1}, size_t{2}}) {
    std::vector<Pattern> patterns = TestPatterns(g, negated);
    ASSERT_FALSE(patterns.empty());
    for (const Pattern& q : patterns) {
      MatchStats seq_stats;
      MatchStats par_stats;
      auto seq = QMatch::Evaluate(q, g, {}, &seq_stats, nullptr);
      auto par = QMatch::Evaluate(q, g, {}, &par_stats, &pool);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(seq.value(), par.value());
      testing::ExpectSameWork(seq_stats, par_stats);
    }
  }
}

}  // namespace
}  // namespace qgp
