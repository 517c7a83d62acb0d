#ifndef QGP_PARALLEL_PQMATCH_H_
#define QGP_PARALLEL_PQMATCH_H_

#include <functional>

#include "common/result.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "parallel/partition.h"

namespace qgp {

class ThreadPool;

/// How the n logical workers of PQMatch/PEnum (one per fragment)
/// execute (docs/ARCHITECTURE.md, "Experimental substitutions").
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

/// Parallel execution knobs shared by PQMatch and PEnum.
struct ParallelConfig {
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// The pool everything runs on; null runs everything on the caller.
  /// kSimulated runs the fragments one at a time on the caller, each
  /// verifying its foci across the whole pool, so the pool's width is
  /// the paper's intra-fragment b (mQMatch) and per-worker times reflect
  /// it honestly. kThreads fans the fragments out on the pool instead;
  /// each fragment then runs inline on the runner that took it.
  ThreadPool* pool = nullptr;
  MatchOptions match;
};

/// Outcome of a parallel run, with the timing decomposition Theorem 7
/// speaks about: per-fragment work, the makespan (the parallel time), and
/// the coordinator's O(n) assembly cost.
struct ParallelRunResult {
  AnswerSet answers;  // global vertex ids
  std::vector<double> fragment_seconds;
  double parallel_seconds = 0;     // makespan + coordinator
  double total_work_seconds = 0;   // Σ fragment time
  double coordinator_seconds = 0;  // union / assembly
  MatchStats stats;                // aggregated over fragments
};

/// Evaluates one fragment that owns foci: its answers in the fragment's
/// LOCAL vertex ids, its work counted into `stats`. Runs concurrently
/// with the other fragments' calls under ExecutionMode::kThreads.
using FragmentEvaluator =
    std::function<Result<AnswerSet>(const Fragment& fragment,
                                    MatchStats* stats)>;

/// The fragment runner behind PQMatch and PEnum. Checks that the pattern
/// fits the partition's hop preservation d, runs `evaluate` once per
/// fragment that owns foci, maps the local answers to global ids, and
/// unions them on the coordinator. Fragments start heaviest |Fi| first
/// (ties by index), so a skewed fragment starts immediately and lighter
/// ones pack around it; under kThreads each is a one-fragment chunk of a
/// work-stealing fan-out on the pool, whose telemetry lands in
/// stats.scheduler_tasks/steals. Fails with the first failing fragment's
/// status, in fragment order.
Result<ParallelRunResult> RunFragments(const Pattern& pattern,
                                       const Partition& partition,
                                       const ParallelConfig& config,
                                       const FragmentEvaluator& evaluate);

/// PQMatch (Fig. 6): evaluates a QGP over a d-hop preserving partition.
/// Each worker runs QMatch on its fragment restricted to owned focus
/// candidates (zero communication, Lemma 9); the coordinator unions the
/// per-fragment answers. Requires pattern.Radius() <= partition.d.
class PQMatch {
 public:
  static Result<ParallelRunResult> Evaluate(const Pattern& pattern,
                                            const Partition& partition,
                                            const ParallelConfig& config);
};

}  // namespace qgp

#endif  // QGP_PARALLEL_PQMATCH_H_
