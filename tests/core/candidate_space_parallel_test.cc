// Differential lockdown for parallel CandidateSpace::Build: across
// randomized seeded (graph, pattern) pairs, the parallel build at every
// tested thread count — with and without the intern pool — must produce
// candidate sets BYTE-identical to the serial build (members and
// bitsets), and QMatch/DMatch answers must not depend on the pool either.
// This is the contract the concurrency model promises (README
// "Concurrency model"): chunking may change who computes a slot, never
// what the slot holds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_space.h"
#include "core/dmatch.h"
#include "core/qmatch.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"

namespace qgp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 60 + seed % 41;
  gc.num_edges = 170 + (seed % 11) * 9;
  gc.num_node_labels = 4 + seed % 4;
  gc.num_edge_labels = 3;
  gc.model = (seed % 2 == 0) ? SyntheticConfig::Model::kSmallWorld
                             : SyntheticConfig::Model::kPowerLaw;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

PatternGenConfig MakePatternConfig(uint64_t seed) {
  PatternGenConfig pc;
  pc.num_nodes = 4 + seed % 2;
  pc.num_edges = 4 + seed % 3;
  pc.num_quantified = 1 + seed % 2;
  pc.kind = (seed % 3 == 0) ? QuantKind::kNumeric : QuantKind::kRatio;
  pc.op = (seed % 5 == 0) ? QuantOp::kEq : QuantOp::kGe;
  pc.percent = 25.0 + 25.0 * (seed % 3);
  pc.count = 1 + seed % 3;
  pc.num_negated = seed % 3;
  return pc;
}

// Byte-identity of the two set families: same members in the same order
// and the same membership bitsets (compared by content fingerprint).
void ExpectIdentical(const CandidateSpace& serial,
                     const CandidateSpace& parallel) {
  ASSERT_EQ(serial.num_pattern_nodes(), parallel.num_pattern_nodes());
  for (PatternNodeId u = 0; u < serial.num_pattern_nodes(); ++u) {
    const std::span<const VertexId> s = serial.stratified(u);
    const std::span<const VertexId> p = parallel.stratified(u);
    ASSERT_TRUE(std::equal(s.begin(), s.end(), p.begin(), p.end()))
        << "stratified(" << u << ") diverged";
    EXPECT_EQ(serial.stratified_set(u)->bits.Fingerprint(),
              parallel.stratified_set(u)->bits.Fingerprint());
    const std::span<const VertexId> sg = serial.good(u);
    const std::span<const VertexId> pg = parallel.good(u);
    ASSERT_TRUE(std::equal(sg.begin(), sg.end(), pg.begin(), pg.end()))
        << "good(" << u << ") diverged";
    EXPECT_EQ(serial.good_set(u)->bits.Fingerprint(),
              parallel.good_set(u)->bits.Fingerprint());
  }
}

// Parallel Build == serial Build, for every thread count, for both build
// paths (simulation on and off), with and without an intern pool.
TEST(CandidateSpaceParallelTest, ParallelBuildIsByteIdenticalToSerial) {
  size_t pairs_compared = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Graph g = MakeGraph(seed);
    std::vector<Pattern> patterns =
        GeneratePatternSuite(g, 5, MakePatternConfig(seed), seed * 211 + 5);
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto pi = patterns[i].Pi();
      if (!pi.ok()) continue;
      const Pattern& positive = pi.value().first;
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(i));
      MatchOptions opts;
      opts.use_simulation = (seed + i) % 2 == 0;
      auto serial = CandidateSpace::Build(positive, g, opts, nullptr);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        auto par =
            CandidateSpace::Build(positive, g, opts, nullptr, &pool);
        ASSERT_TRUE(par.ok()) << par.status().ToString();
        ExpectIdentical(*serial, *par);
        CandidateCache cache(g);
        auto cached =
            CandidateSpace::Build(positive, g, opts, nullptr, &pool, &cache);
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        ExpectIdentical(*serial, *cached);
      }
      ++pairs_compared;
    }
  }
  // The lockdown is only meaningful at volume; if pattern generation
  // starts eating cases, widen the seed range instead of shrinking this.
  EXPECT_GE(pairs_compared, 100u);
}

// Build stats are part of the contract too: the parallel build must
// report the same pruning counters as the serial one.
TEST(CandidateSpaceParallelTest, ParallelBuildStatsMatchSerial) {
  size_t compared = 0;
  for (uint64_t seed = 31; seed <= 42; ++seed) {
    Graph g = MakeGraph(seed);
    std::vector<Pattern> patterns =
        GeneratePatternSuite(g, 3, MakePatternConfig(seed), seed * 97 + 1);
    for (const Pattern& q : patterns) {
      auto pi = q.Pi();
      if (!pi.ok()) continue;
      MatchOptions opts;
      MatchStats serial_stats;
      auto serial =
          CandidateSpace::Build(pi.value().first, g, opts, &serial_stats);
      ASSERT_TRUE(serial.ok());
      ThreadPool pool(4);
      MatchStats par_stats;
      auto par = CandidateSpace::Build(pi.value().first, g, opts, &par_stats,
                                       &pool);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(serial_stats.candidates_initial, par_stats.candidates_initial);
      EXPECT_EQ(serial_stats.candidates_pruned, par_stats.candidates_pruned);
      ++compared;
    }
  }
  EXPECT_GE(compared, 20u);
}

// End to end: QMatch with a pool (parallel Build + parallel verification,
// shared intern pool) returns the same answers as the serial evaluation,
// and a pool-built PositiveEvaluator enumerates the same DMatch answers.
TEST(CandidateSpaceParallelTest, QMatchAndDMatchAnswersMatchSerial) {
  size_t compared = 0;
  for (uint64_t seed = 51; seed <= 74; ++seed) {
    Graph g = MakeGraph(seed);
    std::vector<Pattern> patterns =
        GeneratePatternSuite(g, 3, MakePatternConfig(seed), seed * 389 + 11);
    for (size_t i = 0; i < patterns.size(); ++i) {
      const Pattern& q = patterns[i];
      SCOPED_TRACE("seed " + std::to_string(seed) + " pattern " +
                   std::to_string(i) + ":\n" + q.ToString(&g.dict()));
      auto serial = QMatch::Evaluate(q, g);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        CandidateCache cache(g);
        auto par = QMatch::Evaluate(q, g, {}, nullptr, &pool, &cache);
        ASSERT_TRUE(par.ok()) << par.status().ToString();
        EXPECT_EQ(serial.value(), par.value())
            << "QMatch diverged at " << threads << " threads";
      }
      auto pi = q.Pi();
      if (pi.ok()) {
        auto ev_serial =
            PositiveEvaluator::Create(pi.value().first, g, MatchOptions{});
        ASSERT_TRUE(ev_serial.ok());
        ThreadPool pool(4);
        CandidateCache cache(g);
        auto ev_par = PositiveEvaluator::Create(
            pi.value().first, g, MatchOptions{}, nullptr, 0, &pool, &cache);
        ASSERT_TRUE(ev_par.ok());
        EXPECT_EQ(ev_serial->EvaluateSubset(ev_serial->FocusCandidates(),
                                            nullptr, nullptr, nullptr),
                  ev_par->EvaluateSubset(ev_par->FocusCandidates(), nullptr,
                                         nullptr, nullptr))
            << "DMatch diverged under parallel Build";
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 50u);
}

}  // namespace
}  // namespace qgp
