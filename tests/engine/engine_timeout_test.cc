// Engine deadline / cancellation differential suite. The invariant
// under test everywhere: an evaluation that unwinds early — its own
// timeout_ms, an external CancelToken, a drain — perturbs NOTHING. A
// clean run submitted right after a timed-out one must be byte-
// identical (answers, work counters, cache traffic) to a run on an
// engine that never saw the timeout, because the failed run's partial
// state was rolled back from every cache it touched.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "testing/self_sizing.h"
#include "testing/work_stats.h"

namespace qgp {
namespace {

using Clock = std::chrono::steady_clock;

// The shared slow case (testing/self_sizing.h): its clean runtime is
// sized per process to clear 150 ms twice over, so a 50 ms deadline
// provably fires mid-evaluation.
using testing::SlowCase;
using testing::Slow;

QuerySpec SlowSpec(EngineAlgo algo = EngineAlgo::kQMatch) {
  QuerySpec spec;
  spec.pattern = std::move(PatternParser::Parse(Slow().pattern_text,
                                                Slow().graph.mutable_dict()))
                     .value();
  spec.algo = algo;
  return spec;
}

// The core differential: engine A runs the query cleanly; engine B
// times the same query out first, then runs it cleanly. B's clean run
// must match A's in answers, work counters AND cache traffic — the
// timed-out attempt left no trace in the candidate or result cache.
TEST(EngineTimeoutTest, TimedOutQueryPerturbsNothing) {
  SlowCase& slow = Slow();

  EngineOptions options;
  options.enable_result_cache = true;
  QueryEngine reference(&slow.graph, options);
  auto expected = reference.Submit(SlowSpec());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  QueryEngine engine(&slow.graph, options);
  QuerySpec timed = SlowSpec();
  timed.timeout_ms = 50;
  const auto t0 = Clock::now();
  auto aborted = engine.Submit(timed);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded)
      << aborted.status().ToString();
  EXPECT_LT(elapsed_ms, expected->wall_ms / 2)
      << "the deadline did not interrupt the evaluation (clean run: "
      << expected->wall_ms << " ms)";

  // Rollback left the cache, stored results included, empty (the
  // clean re-run below must also miss the result cache)...
  EXPECT_EQ(engine.cache().size(), 0u);
  EXPECT_EQ(engine.stats().timeouts, 1u);
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().queries, 0u);

  // ...so the clean run is indistinguishable from the reference's.
  auto clean = engine.Submit(SlowSpec());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->answers, expected->answers);
  testing::ExpectSameWork(clean->stats, expected->stats, "clean-after-timeout");
  EXPECT_EQ(clean->cache_hits, expected->cache_hits);
  EXPECT_EQ(clean->cache_misses, expected->cache_misses);
  EXPECT_FALSE(clean->result_cache_hit);

  auto repeat = engine.Submit(SlowSpec());
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->result_cache_hit);
  EXPECT_EQ(repeat->answers, expected->answers);
}

// An external CancelToken fired from another thread unwinds the
// evaluation with kCancelled (not kDeadlineExceeded — the engine
// distinguishes whose signal it was) and counts in
// EngineStats::cancellations.
TEST(EngineTimeoutTest, ExternalCancelTokenUnwinds) {
  SlowCase& slow = Slow();
  QueryEngine engine(&slow.graph, EngineOptions{});

  CancelToken token;
  QuerySpec spec = SlowSpec();
  spec.options.cancel = &token;
  // A generous engine-side deadline: the external cancel must win, and
  // the status must say so.
  spec.timeout_ms = 60'000;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    token.RequestCancel();
  });
  auto outcome = engine.Submit(spec);
  canceller.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
      << outcome.status().ToString();
  EXPECT_EQ(engine.stats().cancellations, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);

  // The engine is fully reusable after a cancellation.
  auto clean = engine.Submit(SlowSpec());
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

// While the engine drains, ApplyDelta stops waiting forever behind an
// in-flight evaluation: it bounded-waits 100 ms and gives
// up with kUnavailable. Once the evaluation is cancelled and draining
// clears, the same delta applies normally.
TEST(EngineTimeoutTest, ApplyDeltaBoundedWaitWhileDraining) {
  SlowCase& slow = Slow();
  QueryEngine engine(Graph(slow.graph));  // owning: deltas legal

  engine.SetDraining(true);
  CancelToken token;
  QuerySpec spec = SlowSpec();
  spec.options.cancel = &token;
  std::thread query([&engine, &spec] {
    auto outcome = engine.Submit(spec);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
        << outcome.status().ToString();
  });

  // Keep trying an empty delta until the slow query owns admission and
  // the bounded wait gives up: each early attempt (before the query is
  // admitted) succeeds as a harmless version-bumping no-op.
  bool saw_unavailable = false;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    auto applied = engine.ApplyDelta(NamedGraphDelta{});
    if (!applied.ok()) {
      EXPECT_EQ(applied.status().code(), StatusCode::kUnavailable)
          << applied.status().ToString();
      saw_unavailable = true;
      break;
    }
    // Step back before retrying: back-to-back applies re-take the
    // admission lock the moment they release it and can starve the
    // query thread's admission (worse the larger the graph).
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_unavailable)
      << "ApplyDelta never hit the bounded wait - the slow query "
         "finished before it was ever parked";

  token.RequestCancel();
  query.join();
  engine.SetDraining(false);
  auto applied = engine.ApplyDelta(NamedGraphDelta{});
  EXPECT_TRUE(applied.ok()) << applied.status().ToString();
}

// Under algo=auto, a timed-out query admits nothing either: whatever
// the planner's focus-count probe and the matcher interned is rolled
// back, and the clean and repeat runs answer alike.
TEST(EngineTimeoutTest, TimedOutAutoQueryAdmitsNothing) {
  SlowCase& slow = Slow();
  QueryEngine engine(&slow.graph, EngineOptions{});

  QuerySpec timed = SlowSpec(EngineAlgo::kAuto);
  timed.timeout_ms = 50;
  auto aborted = engine.Submit(timed);
  ASSERT_FALSE(aborted.ok());
  ASSERT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded)
      << aborted.status().ToString();
  EXPECT_EQ(engine.cache().size(), 0u);

  auto clean = engine.Submit(SlowSpec(EngineAlgo::kAuto));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto repeat = engine.Submit(SlowSpec(EngineAlgo::kAuto));
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->algo, clean->algo);
  EXPECT_EQ(repeat->answers, clean->answers);
}

}  // namespace
}  // namespace qgp
