// Golden bytes of every encoder that writes a stats struct: the query
// and stats responses and one bench row. The strings were captured from
// the hand-written encoders the Fields()-driven ones replaced, so a
// renamed, dropped or reordered key fails here. A new counter changes
// them by design.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "bench/common/bench_common.h"
#include "service/protocol.h"

namespace qgp::service {
namespace {

const MatchStats kMatch{.isomorphisms_enumerated = 1, .witness_searches = 2,
                        .search_extensions = 3, .candidates_initial = 4,
                        .candidates_pruned = 5, .focus_candidates_checked = 6,
                        .inc_candidates_checked = 7, .balls_built = 8,
                        .scheduler_tasks = 9, .scheduler_steals = 10};

TEST(StatsGoldenTest, QueryResponseBytes) {
  const QueryOutcome outcome{.answers = {3, 17}, .stats = kMatch,
                             .wall_ms = 1.5, .algo = EngineAlgo::kPQMatch,
                             .cache_hits = 4, .cache_misses = 2,
                             .result_cache_hit = true, .tag = "q-1"};
  EXPECT_EQ(EncodeQueryResponse(outcome),
            R"({"algo":"pqmatch","answers":[3,17],"cache_hits":4,)"
            R"("cache_misses":2,"delta_repaired":false,"ok":true,)"
            R"("op":"query","result_cache_hit":true,"stats":{"balls_built":8,)"
            R"("candidates_initial":4,"candidates_pruned":5,)"
            R"("focus_candidates_checked":6,"inc_candidates_checked":7,)"
            R"("isomorphisms_enumerated":1,"scheduler_steals":10,)"
            R"("scheduler_tasks":9,"search_extensions":3,)"
            R"("witness_searches":2},"tag":"q-1","wall_ms":1.5})");
}

TEST(StatsGoldenTest, StatsResponseBytes) {
  const EngineStats engine{
      .queries = 11, .failed = 12, .timeouts = 13, .cancellations = 14,
      .match = kMatch, .wall_ms = 15.25, .cache_hits = 3, .cache_misses = 1,
      .cache_evicted = 16, .result_hits = 17, .result_misses = 18,
      .deltas = 19, .delta_wall_ms = 20.5, .results_invalidated = 21,
      .repair_hits = 22, .repair_fallbacks = 23};
  const ServiceStats service{
      .connections = 31, .requests = 32, .queries_ok = 33,
      .queries_failed = 34, .rejected = 35, .malformed = 36,
      .stats_requests = 37, .deltas_ok = 38, .deltas_failed = 39, .shed = 40};
  EXPECT_EQ(EncodeStatsResponse(engine, service),
            R"({"engine":{"cache_evicted":16,"cache_hit_ratio":0.75,)"
            R"("cache_hits":3,"cache_misses":1,"cancellations":14,)"
            R"("delta_wall_ms":20.5,"deltas":19,"failed":12,)"
            R"("match":{"balls_built":8,"candidates_initial":4,)"
            R"("candidates_pruned":5,"focus_candidates_checked":6,)"
            R"("inc_candidates_checked":7,"isomorphisms_enumerated":1,)"
            R"("scheduler_steals":10,"scheduler_tasks":9,)"
            R"("search_extensions":3,"witness_searches":2},"queries":11,)"
            R"("repair_fallbacks":23,"repair_hits":22,"result_hits":17,)"
            R"("result_misses":18,"results_invalidated":21,"timeouts":13,)"
            R"("wall_ms":15.25},"ok":true,"op":"stats",)"
            R"("service":{"connections":31,"deltas_failed":39,"deltas_ok":38,)"
            R"("malformed":36,"queries_failed":34,"queries_ok":33,)"
            R"("rejected":35,"requests":32,"shed":40,"stats_requests":37},)"
            R"("tag":""})");
}

TEST(StatsGoldenTest, BenchRowStatsBytes) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(::setenv("QGP_BENCH_OUT", dir.c_str(), 1), 0);
  ASSERT_EQ(::setenv("QGP_GIT_REV", "golden", 1), 0);
  {
    bench::BenchReporter reporter("stats_golden");
    reporter.Add("row", 1.0, {}, &kMatch);
    ASSERT_TRUE(reporter.Write());
  }
  const std::string path = dir + "/BENCH_stats_golden.json";
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in), {}};
  std::remove(path.c_str());
  EXPECT_NE(json.find(R"({"config": "row", "wall_ms": 1, "stats": )"
                      R"({"isomorphisms_enumerated":1,"witness_searches":2,)"
                      R"("search_extensions":3,"candidates_initial":4,)"
                      R"("candidates_pruned":5,"focus_candidates_checked":6,)"
                      R"("inc_candidates_checked":7,"balls_built":8,)"
                      R"("scheduler_tasks":9,"scheduler_steals":10}})"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace qgp::service
