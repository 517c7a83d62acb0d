// WorkerSet lifecycle: task dispatch, per-worker timing reports, and
// clean shutdown (Run joins its fan-out before returning, so no callback
// may outlive the call).
#include "parallel/worker_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace qgp {
namespace {

TEST(WorkerSetTest, ExposesConstructionParameters) {
  WorkerSet sim(3, ExecutionMode::kSimulated);
  EXPECT_EQ(sim.num_workers(), 3u);
  EXPECT_EQ(sim.mode(), ExecutionMode::kSimulated);
  WorkerSet thr(5, ExecutionMode::kThreads);
  EXPECT_EQ(thr.num_workers(), 5u);
  EXPECT_EQ(thr.mode(), ExecutionMode::kThreads);
}

TEST(WorkerSetTest, SimulatedModeRunsEachWorkerExactlyOnceInOrder) {
  WorkerSet workers(4, ExecutionMode::kSimulated);
  std::vector<size_t> order;
  auto report = workers.Run([&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(report.worker_seconds.size(), 4u);
}

TEST(WorkerSetTest, ThreadModeRunsEachWorkerExactlyOnce) {
  ThreadPool pool(4);
  WorkerSet workers(8, ExecutionMode::kThreads, &pool);
  std::vector<std::atomic<int>> hits(8);
  auto report = workers.Run([&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(report.worker_seconds.size(), 8u);
  EXPECT_EQ(report.tasks_executed, 8u);  // one chunk per logical worker
}

// Heaviest first: on a null pool the kThreads fan-out runs inline, so
// the run order is exactly the weight order (ties by index).
TEST(WorkerSetTest, ThreadModeRunsHeaviestFirst) {
  WorkerSet workers(4, ExecutionMode::kThreads);
  const std::vector<uint64_t> weights = {5, 9, 5, 7};
  std::vector<size_t> order;
  auto report = workers.Run([&](size_t i) { order.push_back(i); }, weights);
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 0, 2}));
  EXPECT_EQ(report.tasks_executed, 0u);  // inline: nothing dispatched
}

TEST(WorkerSetTest, RunJoinsBeforeReturning) {
  // Shutdown correctness: after Run returns, all callbacks must have
  // completed — a still-running worker would see `done` flip and fail.
  ThreadPool pool(4);
  WorkerSet workers(4, ExecutionMode::kThreads, &pool);
  std::atomic<int> completed{0};
  std::atomic<bool> done{false};
  workers.Run([&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(done.load());
    completed.fetch_add(1);
  });
  done.store(true);
  EXPECT_EQ(completed.load(), 4);
}

TEST(WorkerSetTest, ReportTotalsAreConsistent) {
  ThreadPool pool(3);
  for (ExecutionMode mode :
       {ExecutionMode::kSimulated, ExecutionMode::kThreads}) {
    WorkerSet workers(3, mode, &pool);
    auto report = workers.Run([](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    ASSERT_EQ(report.worker_seconds.size(), 3u);
    double max_s = 0, sum_s = 0;
    for (double s : report.worker_seconds) {
      EXPECT_GT(s, 0.0);
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    EXPECT_DOUBLE_EQ(report.makespan_seconds, max_s);
    EXPECT_DOUBLE_EQ(report.total_work_seconds, sum_s);
    EXPECT_GE(report.wall_seconds, 0.0);
    if (mode == ExecutionMode::kSimulated) {
      // Sequential execution: the wall clock covers all workers.
      EXPECT_GE(report.wall_seconds, report.makespan_seconds);
    }
  }
}

TEST(WorkerSetTest, IsReusableAcrossRuns) {
  ThreadPool pool(2);
  WorkerSet workers(2, ExecutionMode::kThreads, &pool);
  std::atomic<int> total{0};
  for (int round = 0; round < 3; ++round) {
    auto report = workers.Run([&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(report.worker_seconds.size(), 2u);
  }
  EXPECT_EQ(total.load(), 6);
}

TEST(WorkerSetTest, ZeroWorkersIsANoOp) {
  WorkerSet workers(0, ExecutionMode::kSimulated);
  std::atomic<int> calls{0};
  auto report = workers.Run([&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(report.worker_seconds.empty());
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.total_work_seconds, 0.0);
}

TEST(WorkerSetTest, SingleWorkerThreadModeWorks) {
  ThreadPool pool(2);
  WorkerSet workers(1, ExecutionMode::kThreads, &pool);
  std::set<size_t> seen;
  std::atomic<int> calls{0};
  auto report = workers.Run([&](size_t i) {
    seen.insert(i);  // single worker: no concurrent mutation
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, (std::set<size_t>{0}));
  EXPECT_EQ(report.worker_seconds.size(), 1u);
}

}  // namespace
}  // namespace qgp
