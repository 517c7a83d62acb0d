#include "parallel/pqmatch.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/qmatch.h"

namespace qgp {

Result<ParallelRunResult> RunFragments(const Pattern& pattern,
                                       const Partition& partition,
                                       const ParallelConfig& config,
                                       const FragmentEvaluator& evaluate) {
  QGP_RETURN_IF_ERROR(
      pattern.Validate(config.match.max_quantified_per_path));
  if (pattern.Radius() > partition.d) {
    return Status::InvalidArgument(
        "pattern radius " + std::to_string(pattern.Radius()) +
        " exceeds the partition's hop preservation d = " +
        std::to_string(partition.d) +
        "; re-partition with DParExtend first");
  }
  const size_t n = partition.fragments.size();
  ParallelRunResult result;
  std::vector<AnswerSet> local_answers(n);
  std::vector<MatchStats> local_stats(n);
  std::vector<Status> local_status(n, Status::Ok());

  // Heaviest fragment first by |Fi| (local nodes + edges, the size the
  // MKP balance bound speaks about), ties by index so the order is a
  // pure function of the partition. kSimulated runs the same loop inline
  // on the caller. Each chunk writes only its own fragment's slots.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t wa = partition.fragments[a].SizeCost();
    const size_t wb = partition.fragments[b].SizeCost();
    if (wa != wb) return wa > wb;
    return a < b;
  });
  result.fragment_seconds.assign(n, 0.0);
  WallTimer wall;
  const ThreadPool::FanOut fan_out = ThreadPool::ParallelForDynamic(
      config.mode == ExecutionMode::kThreads ? config.pool : nullptr, n, 1,
      [&](size_t begin, size_t end) {
        for (size_t pos = begin; pos < end; ++pos) {
          const size_t i = order[pos];
          const Fragment& f = partition.fragments[i];
          if (f.owned_local.empty()) continue;
          WallTimer t;
          Result<AnswerSet> local = evaluate(f, &local_stats[i]);
          if (local.ok()) {
            // Map local answers back to global ids.
            for (VertexId lv : local.value()) {
              local_answers[i].push_back(f.sub.local_to_global[lv]);
            }
          } else {
            local_status[i] = local.status();
          }
          result.fragment_seconds[i] = t.ElapsedSeconds();
        }
      });
  const double wall_seconds = wall.ElapsedSeconds();

  for (size_t i = 0; i < n; ++i) {
    QGP_RETURN_IF_ERROR(local_status[i]);
  }

  // Coordinator: union of per-fragment answers (owned sets are disjoint,
  // so this is concatenation + sort).
  WallTimer assemble;
  for (size_t i = 0; i < n; ++i) {
    result.answers.insert(result.answers.end(), local_answers[i].begin(),
                          local_answers[i].end());
    result.stats.Add(local_stats[i]);
  }
  result.stats.scheduler_tasks += fan_out.chunks;
  result.stats.scheduler_steals += fan_out.stolen;
  Canonicalize(result.answers);
  result.coordinator_seconds = assemble.ElapsedSeconds();

  double makespan = 0;
  for (double s : result.fragment_seconds) {
    makespan = std::max(makespan, s);
    result.total_work_seconds += s;
  }
  const double base =
      config.mode == ExecutionMode::kSimulated ? makespan : wall_seconds;
  result.parallel_seconds = base + result.coordinator_seconds;
  return result;
}

Result<ParallelRunResult> PQMatch::Evaluate(const Pattern& pattern,
                                            const Partition& partition,
                                            const ParallelConfig& config) {
  return RunFragments(
      pattern, partition, config,
      [&](const Fragment& f, MatchStats* stats) -> Result<AnswerSet> {
        QGP_RETURN_IF_ERROR(QGP_FAILPOINT_STATUS("pqmatch.fragment"));
        // Per-fragment intern pool: Π(Q) and every positified Π(Q⁺ᵉ) of
        // this fragment share label/degree candidate sets instead of
        // rebuilding.
        CandidateCache cache(f.sub.graph);
        return QMatch::EvaluateSubset(pattern, f.sub.graph, f.owned_local,
                                      config.match, stats, config.pool,
                                      &cache);
      });
}

}  // namespace qgp
