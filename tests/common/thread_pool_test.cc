#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "testing/thread_count.h"

namespace qgp {
namespace {

using testing::SettledThreadCount;
using testing::ThreadCount;

// Keeps exactly one worker of `pool` (width >= 2) busy until Release().
// Another thread fans out two chunks: the first one a worker takes
// blocks once both chunks have started (so both are counted in the
// scheduler stats), the other returns at once. If that thread ran both
// itself, it fans out again.
class BusyWorker {
 public:
  explicit BusyWorker(ThreadPool* pool)
      : thread_([this, pool] {
          const std::thread::id self = std::this_thread::get_id();
          while (!holding_.load()) {
            std::atomic<int> entered{0};
            std::atomic<bool> claimed{false};
            ThreadPool::ParallelForDynamic(pool, 2, 1, [&](size_t, size_t) {
              entered.fetch_add(1);
              if (std::this_thread::get_id() == self) return;
              if (claimed.exchange(true)) return;
              while (entered.load() < 2) std::this_thread::yield();
              holding_.store(true);
              std::unique_lock<std::mutex> lock(mu_);
              cv_.wait(lock, [this] { return released_; });
            });
          }
        }) {
    while (!holding_.load()) std::this_thread::yield();
  }
  ~BusyWorker() {
    Release();
    thread_.join();
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<bool> holding_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::thread thread_;
};

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      &pool, 100, 1, [&counter](size_t begin, size_t end) {
        counter.fetch_add(static_cast<int>(end - begin));
      });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(fan_out.chunks, 100u);
}

// Every fan-out joins before it returns, so back-to-back fan-outs on
// one pool each see only their own chunks.
TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto add = [&counter](size_t begin, size_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  };
  ThreadPool::ParallelForDynamic(&pool, 7, 1, add);
  EXPECT_EQ(counter.load(), 7);
  ThreadPool::ParallelForDynamic(&pool, 5, 1, add);
  EXPECT_EQ(counter.load(), 12);
}

// Width 0 means width 1: the caller is the only runner.
TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.width(), 1u);
  std::atomic<int> counter{0};
  ThreadPool::ParallelForDynamic(&pool, 3, 1, [&counter](size_t b, size_t e) {
    counter.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, WidthOneStartsNoThreadAndRunsInline) {
  const size_t before = SettledThreadCount();
  ThreadPool pool(1);
  EXPECT_EQ(ThreadCount(), before);
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      &pool, 10, 1, [&](size_t begin, size_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        ++calls;
      });
  EXPECT_EQ(calls, 1u);  // one inline call over the whole range
  EXPECT_EQ(fan_out.chunks, 0u);
  EXPECT_EQ(pool.scheduler_stats().total_executed(), 0u);
}

// Every fan-out joins before it returns, so the destructor finds every
// deque empty: it runs nothing, only stops and joins the workers.
TEST(ThreadPoolTest, DestructorDrainsQueue) {
  // The thread sanitizer starts a helper thread along with the first
  // thread a process creates; let that happen before counting.
  std::thread([] {}).join();
  const size_t before = SettledThreadCount();
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(ThreadCount(), before + 3);  // width − 1 workers
    ThreadPool::ParallelForDynamic(&pool, 50, 1, [&](size_t b, size_t e) {
      counter.fetch_add(static_cast<int>(e - b));
    });
  }
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(SettledThreadCount(), before);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::ParallelForDynamic(&pool, hits.size(), 1,
                                 [&](size_t begin, size_t end) {
                                   for (size_t i = begin; i < end; ++i) {
                                     hits[i].fetch_add(1);
                                   }
                                 });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  bool called = false;
  ThreadPool::ParallelForDynamic(&pool, 0, 1,
                                 [&](size_t, size_t) { called = true; });
  ThreadPool::ParallelForDynamic(nullptr, 0, 1,
                                 [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// A null pool runs the whole range inline, on the caller.
TEST(ThreadPoolTest, NullPoolRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<size_t, size_t>> calls;
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      nullptr, 9, 2, [&](size_t begin, size_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        calls.emplace_back(begin, end);
      });
  EXPECT_EQ(calls, (std::vector<std::pair<size_t, size_t>>{{0, 9}}));
  EXPECT_EQ(fan_out.chunks, 0u);
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  std::vector<int64_t> partial(1000, 0);
  ThreadPool::ParallelForDynamic(&pool, partial.size(), 16,
                                 [&](size_t begin, size_t end) {
                                   for (size_t i = begin; i < end; ++i) {
                                     partial[i] = static_cast<int64_t>(i);
                                   }
                                 });
  int64_t total = std::accumulate(partial.begin(), partial.end(), int64_t{0});
  EXPECT_EQ(total, 999 * 1000 / 2);
}

// --- Work-stealing scheduler ---

TEST(ThreadPoolSchedulerTest, StealableTasksAllRunExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      &pool, hits.size(), 1, [&hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(fan_out.chunks, hits.size());
  const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
  // One slot per runner: three workers plus the callers' slot, and every
  // chunk counted exactly once, whoever ran it.
  EXPECT_EQ(stats.executed.size(), 4u);
  EXPECT_EQ(stats.total_executed(), hits.size());
  EXPECT_EQ(stats.total_stolen(), fan_out.stolen);
  EXPECT_EQ(stats.stolen.back(), 0u);  // callers never steal
}

// Forced-steal stress: one worker is held by another fan-out and the
// caller runs a single chunk, blocking until every other chunk is done.
// The free worker must then drain the held worker's deque too, so half
// the chunks are, by construction, stolen — and each still runs once.
TEST(ThreadPoolSchedulerTest, ForcedStealDrainsOneWorkersDeque) {
  ThreadPool pool(3);
  BusyWorker busy(&pool);
  constexpr size_t kChunks = 100;
  const ThreadPool::SchedulerStats before = pool.scheduler_stats();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(kChunks);
  std::atomic<size_t> done{0};
  std::atomic<bool> caller_started{false};
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      &pool, kChunks, 1, [&](size_t begin, size_t) {
        if (std::this_thread::get_id() == caller) {
          caller_started.store(true);
          while (done.load() < kChunks - 1) std::this_thread::yield();
        } else {
          // Let the caller claim its one chunk first.
          while (!caller_started.load()) std::this_thread::yield();
        }
        hits[begin].fetch_add(1);
        done.fetch_add(1);
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  const ThreadPool::SchedulerStats after = pool.scheduler_stats();
  EXPECT_EQ(fan_out.chunks, kChunks);
  // Dealt 50/50 across the two deques; the caller took one chunk.
  EXPECT_GE(fan_out.stolen, kChunks / 2 - 1);
  EXPECT_EQ(after.total_executed() - before.total_executed(), kChunks);
  EXPECT_EQ(after.executed.back() - before.executed.back(), 1u);
  EXPECT_EQ(after.total_stolen() - before.total_stolen(), fan_out.stolen);
  for (size_t w = 0; w + 1 < after.executed.size(); ++w) {
    EXPECT_LE(after.stolen[w], after.executed[w]);
  }
}

// Destroying the pool right after a fan-out whose chunks were dealt to
// a held worker's deque: the free runners drained that deque before the
// fan-out returned, so nothing is left for the destructor, every chunk
// ran exactly once, and the destructor joins every worker.
TEST(ThreadPoolSchedulerTest, DestructorDrainsStealableDeques) {
  std::thread([] {}).join();
  const size_t before = SettledThreadCount();
  constexpr size_t kChunks = 50;
  std::vector<std::atomic<int>> hits(kChunks);
  {
    ThreadPool pool(3);
    BusyWorker busy(&pool);
    const ThreadPool::SchedulerStats stats_before = pool.scheduler_stats();
    const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
        &pool, kChunks, 1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
    const ThreadPool::SchedulerStats stats_after = pool.scheduler_stats();
    EXPECT_EQ(fan_out.chunks, kChunks);
    EXPECT_EQ(stats_after.total_executed() - stats_before.total_executed(),
              kChunks);
  }  // ~BusyWorker releases the held worker, then ~ThreadPool runs.
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(SettledThreadCount(), before);
}

TEST(ThreadPoolSchedulerTest, ParallelForDynamicCoversAllIndices) {
  for (size_t width : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(width);
    std::vector<std::atomic<int>> hits(313);
    ThreadPool::ParallelForDynamic(&pool, hits.size(), 7,
                                   [&](size_t begin, size_t end) {
                                     for (size_t i = begin; i < end; ++i) {
                                       hits[i].fetch_add(1);
                                     }
                                   });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolSchedulerTest, ParallelForDynamicEmptyAndSingleChunk) {
  ThreadPool pool(3);
  bool called = false;
  ThreadPool::ParallelForDynamic(&pool, 0, 1,
                                 [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
  // n <= grain: one chunk, runs inline.
  std::vector<int> slots(5, 0);
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      &pool, slots.size(), 100, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) slots[i] = 1;
      });
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 5);
  EXPECT_EQ(fan_out.chunks, 0u);
}

// Slot-owned writes merge to the same result at any width and any
// grain — the determinism contract every match-path caller relies on.
TEST(ThreadPoolSchedulerTest, ParallelForDynamicDeterministicSlots) {
  std::vector<uint64_t> expected(1000);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = i * 2654435761u;
  }
  for (size_t width : {1u, 2u, 4u, 8u}) {
    for (size_t grain : {1u, 3u, 64u}) {
      ThreadPool pool(width);
      std::vector<uint64_t> slots(expected.size(), 0);
      ThreadPool::ParallelForDynamic(&pool, slots.size(), grain,
                                     [&](size_t begin, size_t end) {
                                       for (size_t i = begin; i < end; ++i) {
                                         slots[i] = i * 2654435761u;
                                       }
                                     });
      EXPECT_EQ(slots, expected) << "width=" << width << " grain=" << grain;
    }
  }
}

// A fan-out from inside a chunk runs inline on the runner that issued
// it — a worker here, the caller in the next test — instead of
// deadlocking on its own pool.
TEST(ThreadPoolSchedulerTest, NestedParallelForDynamicRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  std::atomic<int> dispatched{0};
  ThreadPool::ParallelForDynamic(&pool, 8, 1, [&](size_t, size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    const ThreadPool::FanOut inner = ThreadPool::ParallelForDynamic(
        &pool, 10, 1, [&](size_t begin, size_t end) {
          EXPECT_EQ(std::this_thread::get_id(), outer);
          inner_hits.fetch_add(static_cast<int>(end - begin));
        });
    dispatched.fetch_add(static_cast<int>(inner.chunks));
  });
  EXPECT_EQ(inner_hits.load(), 80);
  EXPECT_EQ(dispatched.load(), 0);
}

// The caller helping its own fan-out is running one of the pool's
// chunks too, so its nested fan-outs must run inline as well. With the
// only worker held busy, every chunk runs on the caller.
TEST(ThreadPoolSchedulerTest, NestedFanOutFromCallerChunkRunsInline) {
  ThreadPool pool(2);
  BusyWorker busy(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  const ThreadPool::SchedulerStats before = pool.scheduler_stats();
  std::atomic<int> inner_hits{0};
  std::atomic<int> dispatched{0};
  const ThreadPool::FanOut outer = ThreadPool::ParallelForDynamic(
      &pool, 4, 1, [&](size_t, size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        const ThreadPool::FanOut inner = ThreadPool::ParallelForDynamic(
            &pool, 10, 1, [&](size_t begin, size_t end) {
              EXPECT_EQ(std::this_thread::get_id(), caller);
              inner_hits.fetch_add(static_cast<int>(end - begin));
            });
        dispatched.fetch_add(static_cast<int>(inner.chunks));
      });
  EXPECT_EQ(outer.chunks, 4u);
  EXPECT_EQ(inner_hits.load(), 40);
  EXPECT_EQ(dispatched.load(), 0);
  // The caller's chunks are counted, in the callers' slot.
  const ThreadPool::SchedulerStats after = pool.scheduler_stats();
  EXPECT_EQ(after.executed.back() - before.executed.back(), 4u);
}

// Two non-worker threads fanning out on one pool at once: each call
// completes with exactly its own chunks run.
TEST(ThreadPoolSchedulerTest, ConcurrentCallersBothComplete) {
  ThreadPool pool(3);
  constexpr size_t kRounds = 50;
  constexpr size_t kSlots = 64;
  auto caller = [&pool](std::vector<int>* slots) {
    for (size_t round = 0; round < kRounds; ++round) {
      ThreadPool::ParallelForDynamic(&pool, kSlots, 1,
                                     [slots](size_t begin, size_t end) {
                                       for (size_t i = begin; i < end; ++i) {
                                         ++(*slots)[i];
                                       }
                                     });
    }
  };
  std::vector<int> a(kSlots, 0);
  std::vector<int> b(kSlots, 0);
  std::thread ta(caller, &a);
  std::thread tb(caller, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(a, std::vector<int>(kSlots, static_cast<int>(kRounds)));
  EXPECT_EQ(b, std::vector<int>(kSlots, static_cast<int>(kRounds)));
  EXPECT_EQ(pool.scheduler_stats().total_executed(), 2 * kRounds * kSlots);
}

}  // namespace
}  // namespace qgp
