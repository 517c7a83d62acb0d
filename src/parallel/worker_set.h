#ifndef QGP_PARALLEL_WORKER_SET_H_
#define QGP_PARALLEL_WORKER_SET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace qgp {

class ThreadPool;

/// How the n logical workers of PQMatch/PEnum execute (DESIGN.md §3).
enum class ExecutionMode {
  /// Workers run sequentially on the caller; each fragment's work is
  /// timed and the reported parallel time is the makespan (max worker
  /// time plus the coordinator's assembly cost). This reproduces the
  /// paper's n-machine scaling curves faithfully on hosts with fewer
  /// cores, and is the default for the vary-n benches.
  kSimulated,
  /// Workers fan out on the pool; parallel time is wall-clock.
  kThreads,
};

/// Runs one task per logical worker and reports per-worker timings.
class WorkerSet {
 public:
  /// `pool` runs the kThreads fan-out (inline when null); kSimulated
  /// ignores it.
  WorkerSet(size_t num_workers, ExecutionMode mode, ThreadPool* pool = nullptr)
      : num_workers_(num_workers), mode_(mode), pool_(pool) {}

  struct Report {
    std::vector<double> worker_seconds;  // per worker
    double makespan_seconds = 0;         // max worker time (simulated
                                         // parallel time)
    double wall_seconds = 0;             // actual elapsed time
    double total_work_seconds = 0;       // sum of worker times
    uint64_t tasks_executed = 0;         // scheduler telemetry (kThreads)
    uint64_t tasks_stolen = 0;
  };

  /// Executes fn(i) for i in [0, num_workers), heaviest first when
  /// `weights` (one cost estimate per logical worker, e.g. fragment
  /// |Fi|) is given, so a skewed fragment starts immediately and lighter
  /// fragments pack around it. In kThreads mode `fn` must be
  /// thread-safe across distinct i: the logical workers run as
  /// one-index chunks of a fan-out on the pool. `weights` never affects
  /// results — fn(i) runs exactly once per i either way — only the
  /// schedule.
  Report Run(const std::function<void(size_t)>& fn,
             std::span<const uint64_t> weights = {}) const;

  size_t num_workers() const { return num_workers_; }
  ExecutionMode mode() const { return mode_; }

 private:
  size_t num_workers_;
  ExecutionMode mode_;
  ThreadPool* pool_;
};

}  // namespace qgp

#endif  // QGP_PARALLEL_WORKER_SET_H_
