#ifndef QGP_COMMON_THREAD_POOL_H_
#define QGP_COMMON_THREAD_POOL_H_

/// \file
/// The fixed-width work-stealing pool and its one fan-out primitive —
/// the single executor every parallel phase of the repo runs on (see
/// docs/ARCHITECTURE.md for where it sits in the stack).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qgp {

/// A fork-join pool `width` runners wide: width − 1 worker threads plus
/// the thread that calls ParallelForDynamic, which runs chunks of its
/// own fan-out instead of sleeping on it. ThreadPool(1) starts no thread
/// at all.
///
/// ParallelForDynamic is the only way to run work on the pool. The
/// caller deals the chunks round-robin onto the workers' deques and
/// wakes them, takes chunks of its own call (head first) until none are
/// left, and only then waits for the ones still in flight. Each worker
/// drains its own deque from the head and, when it is empty, steals from
/// the tail of a randomly chosen victim (Chase-Lev discipline). With
/// chunks dealt largest-first, every runner takes the biggest pending
/// chunk next while thieves peel the smallest off the other end, so
/// skewed workloads rebalance instead of serializing on one worker.
///
/// Why the caller runs chunks: a sleeping worker needs a wake-up before
/// it runs anything, and woken workers land on fewer distinct CPUs than
/// fresh threads. Four ~0.3 ms tasks took 1,464 µs p50 on four sleeping
/// workers, 868 µs on four fresh threads, and 781 µs with the caller
/// running one itself next to three workers (4-vCPU host).
class ThreadPool {
 public:
  /// A pool `width` runners wide (at least 1): starts width − 1 workers.
  explicit ThreadPool(size_t width);

  /// Stops and joins the workers. Every fan-out joins before it
  /// returns, so no chunk is ever pending here.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runners per fan-out: the workers plus the calling thread.
  size_t width() const { return workers_.size() + 1; }

  /// Scheduler telemetry of one fan-out.
  struct FanOut {
    uint64_t chunks = 0;  ///< chunks dispatched (0 when run inline)
    uint64_t stolen = 0;  ///< of those, run by a worker that stole them
  };

  /// The fan-out: applies `fn(begin, end)` to contiguous chunks of
  /// exactly `min_grain` indices covering [0, n) (the last may be short)
  /// and returns when every chunk has run. Chunk boundaries are a pure
  /// function of (n, min_grain), so callers that write only to
  /// index-owned slots get results identical to the serial loop at any
  /// width — stealing moves chunks between runners, never between
  /// slots. Callers that want largest-first execution sort their index
  /// space before calling (see qmatch.cc's focus map).
  ///
  /// Runs inline, as the single call fn(0, n), when `pool` is null or
  /// one wide, when the range is a single chunk, or when the calling
  /// thread is already running one of `pool`'s chunks — a worker, or a
  /// caller helping its own fan-out. The last rule is what makes nested
  /// fan-outs safe: a chunk never waits on the pool it runs on.
  static FanOut ParallelForDynamic(
      ThreadPool* pool, size_t n, size_t min_grain,
      const std::function<void(size_t, size_t)>& fn);

  /// Cumulative scheduler counters since construction, one slot per
  /// runner: `executed[w]` / `stolen[w]` count the chunks worker w ran /
  /// ran after stealing them from another worker's deque, and the last
  /// slot counts the chunks fan-out callers ran (never steals). Every
  /// dispatched chunk is counted exactly once; inline runs are not
  /// dispatched and count nowhere. The snapshot is not atomic across
  /// runners — read it while no fan-out is in flight for exact totals.
  struct SchedulerStats {
    std::vector<uint64_t> executed;  ///< per runner: chunks it ran
    std::vector<uint64_t> stolen;    ///< per runner: ran after stealing
    /// Sum of `executed` across runners.
    uint64_t total_executed() const {
      uint64_t n = 0;
      for (uint64_t e : executed) n += e;
      return n;
    }
    /// Sum of `stolen` across runners.
    uint64_t total_stolen() const {
      uint64_t n = 0;
      for (uint64_t s : stolen) n += s;
      return n;
    }
  };
  SchedulerStats scheduler_stats() const;

 private:
  /// One fan-out in flight; lives on its caller's stack.
  struct Call;
  /// The chunk [begin, end) of `call`.
  struct Chunk {
    Call* call = nullptr;
    size_t begin = 0;
    size_t end = 0;
  };
  /// One worker's deque plus its scheduler counters. A per-deque mutex
  /// instead of the lock-free Chase-Lev protocol: match chunks are
  /// chunky (a focus verification, a ball extraction), so the lock is
  /// nanoseconds against microseconds-to-milliseconds of work, and it
  /// keeps the scheduler trivially TSan-clean.
  struct Worker {
    std::mutex mu;
    std::deque<Chunk> deque;
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> stolen{0};
  };

  FanOut Dispatch(size_t n, size_t grain, size_t chunks,
                  const std::function<void(size_t, size_t)>& fn);
  void WorkerLoop(size_t id);
  /// Own deque head, else a random victim's tail. False when no chunk
  /// was found anywhere.
  bool TakeChunk(size_t id, Chunk* chunk);
  /// The first chunk of `call` in any deque, scanning from deque
  /// `*start` on (advanced past the deque it was found in). False when
  /// none is left.
  bool TakeOwnChunk(const Call* call, size_t* start, Chunk* chunk);
  static void RunChunk(const Chunk& chunk);

  std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when chunks arrive / stop
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Chunks sitting in deques, not yet claimed: the workers' sleep
  /// predicate. Raised under mu_ (so no wake-up is lost), lowered
  /// without it.
  std::atomic<size_t> ready_{0};
  std::atomic<uint64_t> caller_executed_{0};
  bool stop_ = false;  // guarded by mu_
  std::vector<std::thread> threads_;  // last: the workers use the above
};

}  // namespace qgp

#endif  // QGP_COMMON_THREAD_POOL_H_
