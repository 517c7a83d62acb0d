#include "parallel/worker_set.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace qgp {

WorkerSet::Report WorkerSet::Run(const std::function<void(size_t)>& fn,
                                 std::span<const uint64_t> weights) const {
  Report report;
  report.worker_seconds.assign(num_workers_, 0.0);
  WallTimer wall;
  // Heaviest logical worker first (ties by index, so the order is a pure
  // function of the weights), one index per chunk. kSimulated is the
  // same loop run inline on the caller. Each chunk writes only its own
  // report slot, so the report is deterministic even though the
  // schedule is not.
  std::vector<size_t> order(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) order[i] = i;
  if (weights.size() == num_workers_) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (weights[a] != weights[b]) return weights[a] > weights[b];
      return a < b;
    });
  }
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      mode_ == ExecutionMode::kThreads ? pool_ : nullptr, num_workers_, 1,
      [&](size_t begin, size_t end) {
        for (size_t pos = begin; pos < end; ++pos) {
          const size_t i = order[pos];
          WallTimer t;
          fn(i);
          report.worker_seconds[i] = t.ElapsedSeconds();
        }
      });
  report.tasks_executed = fan_out.chunks;
  report.tasks_stolen = fan_out.stolen;
  report.wall_seconds = wall.ElapsedSeconds();
  for (double s : report.worker_seconds) {
    report.makespan_seconds = std::max(report.makespan_seconds, s);
    report.total_work_seconds += s;
  }
  return report;
}

}  // namespace qgp
