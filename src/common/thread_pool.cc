#include "common/thread_pool.h"

#include <algorithm>

namespace qgp {

namespace {

// The pools whose chunks the calling thread is running, innermost
// first: a worker pushes its pool for its whole life, a caller for the
// span of its fan-out. A fan-out on any pool in the chain runs inline.
struct Running {
  const ThreadPool* pool;
  const Running* outer;
};
thread_local const Running* tls_running = nullptr;

bool RunsChunkOf(const ThreadPool* pool) {
  for (const Running* r = tls_running; r != nullptr; r = r->outer) {
    if (r->pool == pool) return true;
  }
  return false;
}

// Pushes `pool` onto the calling thread's chain for the scope.
class RunningScope {
 public:
  explicit RunningScope(const ThreadPool* pool)
      : self_{pool, tls_running} {
    tls_running = &self_;
  }
  ~RunningScope() { tls_running = self_.outer; }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;

 private:
  Running self_;
};

}  // namespace

struct ThreadPool::Call {
  const std::function<void(size_t, size_t)>* fn = nullptr;
  /// Chunks not yet finished; whoever finishes the last one signals.
  std::atomic<size_t> pending{0};
  std::atomic<uint64_t> stolen{0};
  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;
};

ThreadPool::ThreadPool(size_t width) {
  const size_t workers = std::max<size_t>(1, width) - 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool::FanOut ThreadPool::ParallelForDynamic(
    ThreadPool* pool, size_t n, size_t min_grain,
    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return {};
  const size_t grain = std::max<size_t>(1, min_grain);
  const size_t chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->workers_.empty() || chunks == 1 ||
      RunsChunkOf(pool)) {
    fn(0, n);
    return {};
  }
  return pool->Dispatch(n, grain, chunks, fn);
}

ThreadPool::FanOut ThreadPool::Dispatch(
    size_t n, size_t grain, size_t chunks,
    const std::function<void(size_t, size_t)>& fn) {
  Call call;
  call.fn = &fn;
  call.pending.store(chunks, std::memory_order_relaxed);
  // Count the chunks BEFORE they become visible: a worker already
  // probing may take and finish one at once, and the ready count must
  // never run below zero. The reverse transient (counted, not yet
  // pushed) only makes an idle worker re-probe.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.fetch_add(chunks, std::memory_order_relaxed);
  }
  // Deal round-robin in index order: chunk c lands on worker c % |workers|,
  // so each deque holds an interleaved, order-preserving slice of the
  // caller's (typically size-sorted) chunk sequence.
  const size_t nw = workers_.size();
  for (size_t w = 0; w < nw && w < chunks; ++w) {
    Worker& worker = *workers_[w];
    std::lock_guard<std::mutex> lock(worker.mu);
    for (size_t c = w; c < chunks; c += nw) {
      const size_t begin = c * grain;
      worker.deque.push_back({&call, begin, std::min(n, begin + grain)});
    }
  }
  if (chunks >= nw) {
    work_cv_.notify_all();
  } else {
    for (size_t c = 0; c < chunks; ++c) work_cv_.notify_one();
  }

  // Take part: run this call's chunks until none is left in any deque.
  // Nested fan-outs from these chunks run inline (RunsChunkOf).
  {
    RunningScope running(this);
    size_t start = 0;
    Chunk chunk;
    while (TakeOwnChunk(&call, &start, &chunk)) {
      caller_executed_.fetch_add(1, std::memory_order_relaxed);
      RunChunk(chunk);
    }
  }
  // Then wait for the chunks still in flight on the workers. `done` is
  // set and signalled under call.mu, so once this wait returns no
  // worker touches `call` again and it may leave the stack.
  std::unique_lock<std::mutex> lock(call.mu);
  call.done_cv.wait(lock, [&call] { return call.done; });
  return {chunks, call.stolen.load(std::memory_order_relaxed)};
}

void ThreadPool::RunChunk(const Chunk& chunk) {
  Call* call = chunk.call;
  (*call->fn)(chunk.begin, chunk.end);
  if (call->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(call->mu);
    call->done = true;
    call->done_cv.notify_one();
  }
}

ThreadPool::SchedulerStats ThreadPool::scheduler_stats() const {
  SchedulerStats stats;
  stats.executed.reserve(width());
  stats.stolen.reserve(width());
  for (const auto& w : workers_) {
    stats.executed.push_back(w->executed.load(std::memory_order_relaxed));
    stats.stolen.push_back(w->stolen.load(std::memory_order_relaxed));
  }
  stats.executed.push_back(caller_executed_.load(std::memory_order_relaxed));
  stats.stolen.push_back(0);
  return stats;
}

bool ThreadPool::TakeOwnChunk(const Call* call, size_t* start, Chunk* chunk) {
  const size_t nw = workers_.size();
  for (size_t probe = 0; probe < nw; ++probe) {
    const size_t w = (*start + probe) % nw;
    Worker& worker = *workers_[w];
    std::lock_guard<std::mutex> lock(worker.mu);
    auto it = std::find_if(worker.deque.begin(), worker.deque.end(),
                           [call](const Chunk& c) { return c.call == call; });
    if (it == worker.deque.end()) continue;
    *chunk = *it;
    worker.deque.erase(it);
    ready_.fetch_sub(1, std::memory_order_relaxed);
    // Resume at the next deque: dealing was round-robin, so this walks
    // the chunks in index (largest-first) order.
    *start = w + 1;
    return true;
  }
  return false;
}

bool ThreadPool::TakeChunk(size_t id, Chunk* chunk) {
  // 1. Own deque, head end: the oldest of this worker's pending chunks,
  // which under largest-first dealing is its largest remaining one.
  Worker& own = *workers_[id];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.deque.empty()) {
      *chunk = own.deque.front();
      own.deque.pop_front();
      ready_.fetch_sub(1, std::memory_order_relaxed);
      own.executed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Steal: probe every other worker once, starting at a random
  // offset, and take the TAIL of the first non-empty deque found (the
  // end opposite the owner, per Chase-Lev).
  const size_t n = workers_.size();
  if (n > 1 && ready_.load(std::memory_order_relaxed) > 0) {
    // Cheap per-worker xorshift; scheduling may be random, results never
    // depend on it.
    static thread_local uint64_t rng_state = 0;
    if (rng_state == 0) rng_state = 0x9e3779b97f4a7c15ULL ^ (id + 1);
    rng_state ^= rng_state << 13;
    rng_state ^= rng_state >> 7;
    rng_state ^= rng_state << 17;
    const size_t start = static_cast<size_t>(rng_state % n);
    for (size_t probe = 0; probe < n; ++probe) {
      const size_t victim = (start + probe) % n;
      if (victim == id) continue;
      Worker& v = *workers_[victim];
      std::lock_guard<std::mutex> lock(v.mu);
      if (v.deque.empty()) continue;
      *chunk = v.deque.back();
      v.deque.pop_back();
      ready_.fetch_sub(1, std::memory_order_relaxed);
      own.executed.fetch_add(1, std::memory_order_relaxed);
      own.stolen.fetch_add(1, std::memory_order_relaxed);
      // Before the chunk runs: once its last chunk finishes, the call
      // may leave its caller's stack.
      chunk->call->stolen.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t id) {
  RunningScope running(this);
  for (;;) {
    Chunk chunk;
    if (TakeChunk(id, &chunk)) {
      RunChunk(chunk);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] {
      return stop_ || ready_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_ && ready_.load(std::memory_order_relaxed) == 0) return;
  }
}

}  // namespace qgp
