// Fault injection for the scatter-gather coordinator: every test forces
// a deterministic failure through an armed failpoint — at the
// shard.scatter seam (before a shard evaluates), at the shard.gather
// seam (before a slice's answers join the union), server-side at
// engine.submit for the loopback deployment, or via deadline/cancel
// tokens — and asserts the documented partial-failure policy:
//
//  * kFailQuery: any shard failure fails the query with that shard's
//    error (the default — never a silently smaller answer set);
//  * kBestEffort: the query succeeds with partial=true and the failed
//    slice's structured error recorded; surviving slices are complete;
//  * whole-query cancel/deadline beats both policies (kCancelled /
//    kDeadlineExceeded, never partial);
//  * after DisarmAll, the same engines answer the same query completely
//    and correctly — no partial answers were cached anywhere.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/query_engine.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "parallel/dpar.h"
#include "service/query_service.h"
#include "shard/shard.h"
#include "shard/sharded_engine.h"
#include "testing/thread_count.h"

namespace qgp {
namespace {

using shard::FailurePolicy;
using shard::ShardedEngine;
using shard::ShardedOptions;
using shard::ShardedOutcome;

Graph MakeGraph(uint64_t seed) {
  SyntheticConfig gc;
  gc.num_vertices = 60;
  gc.num_edges = 170;
  gc.num_node_labels = 4;
  gc.num_edge_labels = 3;
  gc.seed = seed;
  return std::move(GenerateSynthetic(gc)).value();
}

// A pattern with at least one answer on MakeGraph(7) — the tests assert
// the full (fault-free) answer set is non-empty so "partial" and
// "complete" are actually distinguishable.
QuerySpec MakeSpec(const Graph& g) {
  PatternGenConfig pc;
  pc.num_nodes = 3;
  pc.num_edges = 2;
  pc.num_quantified = 1;
  pc.num_negated = 0;
  std::vector<Pattern> suite = GeneratePatternSuite(g, 8, pc, 21);
  QueryEngine probe(&g);
  for (Pattern& p : suite) {
    if (p.Radius() > 2) continue;
    QuerySpec spec;
    spec.pattern = std::move(p);
    auto out = probe.Submit(spec);
    if (out.ok() && !out->answers.empty()) return spec;
  }
  ADD_FAILURE() << "no pattern with answers generated";
  return {};
}

AnswerSet FullAnswers(const Graph& g, const QuerySpec& spec) {
  QueryEngine single(&g);
  auto out = single.Submit(spec);
  EXPECT_TRUE(out.ok());
  return out.ok() ? out->answers : AnswerSet{};
}

class ShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeGraph(7);
    spec_ = MakeSpec(graph_);
    full_ = FullAnswers(graph_, spec_);
    ASSERT_FALSE(full_.empty());
  }
  void TearDown() override { failpoint::DisarmAll(); }

  std::unique_ptr<ShardedEngine> MakeInProcess(FailurePolicy policy,
                                               int64_t shard_timeout_ms = 0) {
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.d = 2;
    sopts.failure_policy = policy;
    sopts.shard_timeout_ms = shard_timeout_ms;
    sopts.engine.num_threads = 1;
    sopts.engine.enable_result_cache = true;  // poisoning would stick
    auto sharded = ShardedEngine::Create(graph_, sopts);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return sharded.ok() ? std::move(*sharded) : nullptr;
  }

  Graph graph_;
  QuerySpec spec_;
  AnswerSet full_;
};

// ---- scatter failures, in-process ------------------------------------

TEST_F(ShardFaultTest, ScatterErrorFailQueryPolicy) {
  auto sharded = MakeInProcess(FailurePolicy::kFailQuery);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.kind = failpoint::Action::Kind::kError;
  a.code = StatusCode::kUnavailable;
  a.message = "injected scatter fault";
  a.once = true;
  failpoint::Arm("shard.scatter", a);

  auto out = sharded->Submit(spec_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(failpoint::HitCount("shard.scatter"), 1u);

  // The healthy-again engine serves the complete answer — the failed
  // attempt left nothing behind (nothing was cached before the seam).
  failpoint::DisarmAll();
  auto again = sharded->Submit(spec_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->partial);
  EXPECT_EQ(again->answers, full_);
}

TEST_F(ShardFaultTest, ScatterErrorBestEffortReturnsPartial) {
  auto sharded = MakeInProcess(FailurePolicy::kBestEffort);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.code = StatusCode::kUnavailable;
  a.message = "injected scatter fault";
  a.once = true;
  failpoint::Arm("shard.scatter", a);

  auto out = sharded->Submit(spec_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->partial);
  size_t failed = 0;
  for (const auto& slice : out->shards) {
    if (slice.ok) continue;
    ++failed;
    EXPECT_EQ(slice.error_code, "Unavailable");
    EXPECT_EQ(slice.answer_count, 0u);
  }
  EXPECT_EQ(failed, 1u);
  // Partial really is a subset: what survived is exactly the full set
  // minus the failed shard's owned answers.
  EXPECT_EQ(out->answers, SetIntersection(out->answers, full_));
  EXPECT_LT(out->answers.size(), full_.size() + 1);

  failpoint::DisarmAll();
  auto again = sharded->Submit(spec_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->partial);
  EXPECT_EQ(again->answers, full_) << "partial answers leaked into a cache";
}

// ---- per-shard timeout ----------------------------------------------

TEST_F(ShardFaultTest, ShardTimeoutIsPolicyVisible) {
  // One shard sleeps past its per-shard deadline at the scatter seam;
  // its (already-expired) token then stops the evaluation immediately.
  auto sharded =
      MakeInProcess(FailurePolicy::kBestEffort, /*shard_timeout_ms=*/100);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.kind = failpoint::Action::Kind::kDelayMs;
  a.delay_ms = 400;
  a.once = true;
  failpoint::Arm("shard.scatter", a);

  auto out = sharded->Submit(spec_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->partial);
  size_t timed_out = 0;
  for (const auto& slice : out->shards) {
    if (!slice.ok) {
      ++timed_out;
      EXPECT_EQ(slice.error_code, "DeadlineExceeded");
    }
  }
  EXPECT_EQ(timed_out, 1u);

  failpoint::DisarmAll();
  auto again = sharded->Submit(spec_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->answers, full_);
}

TEST_F(ShardFaultTest, ShardTimeoutFailsQueryUnderStrictPolicy) {
  auto sharded =
      MakeInProcess(FailurePolicy::kFailQuery, /*shard_timeout_ms=*/100);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.kind = failpoint::Action::Kind::kDelayMs;
  a.delay_ms = 400;
  a.once = true;
  failpoint::Arm("shard.scatter", a);

  auto out = sharded->Submit(spec_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
}

// ---- the scatter creates no thread ---------------------------------

// The scatter is one fan-out on the sharded engine's own pool, built
// with the engine, and the submitting thread runs a shard itself: while
// the shards are parked at the scatter seam, the process has exactly
// the threads it had before the query.
TEST_F(ShardFaultTest, ScatterCreatesNoThread) {
  auto sharded = MakeInProcess(FailurePolicy::kFailQuery);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.kind = failpoint::Action::Kind::kDelayMs;
  a.delay_ms = 50;
  failpoint::Arm("shard.scatter", a);

  std::atomic<bool> finished{false};
  std::atomic<size_t> parked_threads{0};
  std::thread observer([&] {
    while (failpoint::HitCount("shard.scatter") == 0 && !finished.load()) {
      std::this_thread::yield();
    }
    parked_threads.store(testing::ThreadCount());
  });
  const size_t before = testing::SettledThreadCount();
  auto out = sharded->Submit(spec_);
  finished.store(true);
  observer.join();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->answers, full_);
  EXPECT_GE(failpoint::HitCount("shard.scatter"), 1u);
  EXPECT_EQ(parked_threads.load(), before);
}

// ---- whole-query cancel beats every policy ---------------------------

TEST_F(ShardFaultTest, CallerCancelNeverReturnsPartial) {
  auto sharded = MakeInProcess(FailurePolicy::kBestEffort);
  ASSERT_NE(sharded, nullptr);
  CancelToken token;
  token.RequestCancel();  // cancelled before the scatter even starts
  QuerySpec spec = spec_;
  spec.options.cancel = &token;
  auto out = sharded->Submit(spec);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);

  spec.options.cancel = nullptr;
  auto again = sharded->Submit(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->answers, full_);
}

// ---- gather failures -------------------------------------------------

TEST_F(ShardFaultTest, GatherDropBestEffort) {
  auto sharded = MakeInProcess(FailurePolicy::kBestEffort);
  ASSERT_NE(sharded, nullptr);
  failpoint::Action a;
  a.code = StatusCode::kUnavailable;
  a.message = "injected gather drain";
  a.once = true;
  failpoint::Arm("shard.gather", a);

  auto out = sharded->Submit(spec_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->partial);
  ASSERT_FALSE(out->shards.empty());
  // Gather walks slices in shard order; "once" drops exactly the first.
  EXPECT_FALSE(out->shards[0].ok);
  EXPECT_EQ(out->shards[0].error_code, "Unavailable");
  EXPECT_GE(failpoint::HitCount("shard.gather"), 1u);
  EXPECT_EQ(out->answers, SetIntersection(out->answers, full_));

  // The dropped slice's shard DID evaluate (the failure was on the
  // coordinator side) — its result cache must hold the true per-shard
  // answer, not a poisoned one, so the retry is complete AND served
  // from warm caches.
  failpoint::DisarmAll();
  auto again = sharded->Submit(spec_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->partial);
  EXPECT_EQ(again->answers, full_);
}

// ---- the same faults over loopback (process-per-shard transport) -----

class ShardLoopbackFaultTest : public ShardFaultTest {
 protected:
  void SetUp() override {
    ShardFaultTest::SetUp();
    DParConfig pc;
    pc.num_fragments = 2;
    pc.d = 2;
    auto partition = DPar(graph_, pc);
    ASSERT_TRUE(partition.ok());
    std::vector<int> ports;
    for (Fragment& f : partition->fragments) {
      EngineOptions eopts;
      eopts.num_threads = 1;
      eopts.enable_result_cache = true;
      engines_.push_back(shard::MakeShardEngine(
          f.sub.graph, f.owned_local, partition->d, eopts));  // copies
      service::ServiceOptions sopts;
      sopts.port = 0;
      services_.push_back(std::make_unique<service::QueryService>(
          engines_.back().get(), sopts));
      ASSERT_TRUE(services_.back()->Start().ok());
      ports.push_back(services_.back()->port());
    }
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.d = 2;
    sopts.failure_policy = FailurePolicy::kBestEffort;
    sopts.remote_ports = ports;
    sopts.remote_read_timeout_ms = 5000;
    auto sharded = ShardedEngine::Create(graph_, std::move(*partition), sopts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    sharded_ = std::move(*sharded);
  }

  void TearDown() override {
    failpoint::DisarmAll();
    sharded_.reset();  // client connections close before the servers
    for (auto& s : services_) s->Stop();
    ShardFaultTest::TearDown();
  }

  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::vector<std::unique_ptr<service::QueryService>> services_;
  std::unique_ptr<ShardedEngine> sharded_;
};

// Server-side failure: the shard's engine rejects the submit, the
// service returns a structured error line, and StatusFromWire carries
// the code back into the slice — across the TCP boundary.
TEST_F(ShardLoopbackFaultTest, ServerSideErrorPropagatesCode) {
  failpoint::Action a;
  a.code = StatusCode::kUnavailable;
  a.message = "injected server fault";
  a.once = true;
  failpoint::Arm("engine.submit", a);

  auto out = sharded_->Submit(spec_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->partial);
  size_t failed = 0;
  for (const auto& slice : out->shards) {
    if (!slice.ok) {
      ++failed;
      EXPECT_EQ(slice.error_code, "Unavailable");
    }
  }
  EXPECT_EQ(failed, 1u);

  failpoint::DisarmAll();
  auto again = sharded_->Submit(spec_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->partial);
  EXPECT_EQ(again->answers, full_);
}

// Mid-gather drain over loopback: both shards answered over TCP, the
// coordinator drops one slice while merging. The next query is served
// complete from the (unpoisoned) shard caches.
TEST_F(ShardLoopbackFaultTest, MidGatherDrainOverLoopback) {
  auto warm = sharded_->Submit(spec_);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->answers, full_);

  failpoint::Action a;
  a.code = StatusCode::kUnavailable;
  a.message = "injected gather drain";
  a.once = true;
  failpoint::Arm("shard.gather", a);

  auto out = sharded_->Submit(spec_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->partial);
  EXPECT_FALSE(out->shards[0].ok);
  EXPECT_EQ(out->answers, SetIntersection(out->answers, full_));

  failpoint::DisarmAll();
  auto again = sharded_->Submit(spec_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->partial);
  EXPECT_EQ(again->answers, full_);
}

}  // namespace
}  // namespace qgp
