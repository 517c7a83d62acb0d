#include "parallel/penum.h"

#include "common/timer.h"
#include "core/enum_matcher.h"

namespace qgp {

namespace {

// Enum over one fragment: Π(Q) on owned foci, minus each Π(Q⁺ᵉ)
// re-enumerated over the full owned set (no incremental reuse — that is
// the point of the baseline).
Result<AnswerSet> EnumFragment(const Pattern& pattern, const Graph& g,
                               std::span<const VertexId> owned,
                               const MatchOptions& options,
                               MatchStats* stats) {
  auto pi = pattern.Pi();
  if (!pi.ok()) return pi.status();
  // Per-fragment intern pool: the Π(Q) and Π(Q⁺ᵉ) enumerations share
  // their plain label/degree candidate sets instead of rebuilding them.
  CandidateCache cache(g);
  QGP_ASSIGN_OR_RETURN(
      AnswerSet answers,
      EnumMatcher::EvaluatePositive(pi.value().first, g, options, stats,
                                    owned, &cache));
  for (PatternEdgeId e : pattern.NegatedEdgeIds()) {
    QGP_ASSIGN_OR_RETURN(Pattern positified, pattern.Positify(e));
    auto pi_pos = positified.Pi();
    if (!pi_pos.ok()) return pi_pos.status();
    QGP_ASSIGN_OR_RETURN(
        AnswerSet negative,
        EnumMatcher::EvaluatePositive(pi_pos.value().first, g, options,
                                      stats, owned, &cache));
    answers = SetDifference(answers, negative);
  }
  return answers;
}

}  // namespace

Result<ParallelRunResult> PEnum::Evaluate(const Pattern& pattern,
                                          const Partition& partition,
                                          const ParallelConfig& config) {
  QGP_RETURN_IF_ERROR(
      pattern.Validate(config.match.max_quantified_per_path));
  if (pattern.Radius() > partition.d) {
    return Status::InvalidArgument(
        "pattern radius exceeds the partition's hop preservation depth");
  }
  const size_t n = partition.fragments.size();
  ParallelRunResult result;
  std::vector<AnswerSet> local_answers(n);
  std::vector<MatchStats> local_stats(n);
  std::vector<Status> local_status(n, Status::Ok());

  // Same size-ordered stealable schedule as PQMatch: heaviest fragment
  // first, idle workers steal the rest.
  std::vector<uint64_t> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = partition.fragments[i].SizeCost();
  }

  WorkerSet workers(n, config.mode, config.pool);
  WorkerSet::Report report = workers.Run([&](size_t i) {
    const Fragment& f = partition.fragments[i];
    if (f.owned_local.empty()) return;
    Result<AnswerSet> local = EnumFragment(
        pattern, f.sub.graph, f.owned_local, config.match, &local_stats[i]);
    if (!local.ok()) {
      local_status[i] = local.status();
      return;
    }
    for (VertexId lv : local.value()) {
      local_answers[i].push_back(f.sub.local_to_global[lv]);
    }
  }, weights);
  for (size_t i = 0; i < n; ++i) {
    QGP_RETURN_IF_ERROR(local_status[i]);
  }

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

}  // namespace qgp
