#include "parallel/pqmatch.h"

#include "common/failpoint.h"
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

  // Fragment cost estimates for the work-stealing schedule: |Fi| (local
  // nodes + edges), the same size the MKP balance bound speaks about.
  // A skewed fragment starts first; idle workers steal the rest.
  std::vector<uint64_t> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = partition.fragments[i].SizeCost();
  }

  WorkerSet workers(n, config.mode, config.pool);
  WorkerSet::Report report = workers.Run([&](size_t i) {
    const Fragment& f = partition.fragments[i];
    if (f.owned_local.empty()) return;
    Result<AnswerSet> local = evaluate(f, &local_stats[i]);
    if (!local.ok()) {
      local_status[i] = local.status();
      return;
    }
    // Map local answers back to global ids.
    for (VertexId lv : local.value()) {
      local_answers[i].push_back(f.sub.local_to_global[lv]);
    }
  }, weights);

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
  result.stats.scheduler_tasks += report.tasks_executed;
  result.stats.scheduler_steals += report.tasks_stolen;
  Canonicalize(result.answers);
  result.coordinator_seconds = assemble.ElapsedSeconds();

  result.fragment_seconds = report.worker_seconds;
  result.total_work_seconds = report.total_work_seconds;
  double base = config.mode == ExecutionMode::kSimulated
                    ? report.makespan_seconds
                    : report.wall_seconds;
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
