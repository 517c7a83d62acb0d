#ifndef QGP_BENCH_COMMON_PARALLEL_RUNNER_H_
#define QGP_BENCH_COMMON_PARALLEL_RUNNER_H_

// Runner for the four parallel algorithm variants §7 compares:
//   PEnum    — parallel enumerate-then-verify baseline
//   PQMatchs — PQMatch, single thread per worker
//   PQMatchn — PQMatch without incremental negation, b threads
//   PQMatch  — the full algorithm, b threads + IncQMatch
// Parallel time is the simulated makespan (docs/ARCHITECTURE.md,
// "Experimental substitutions").

#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "common/thread_pool.h"
#include "parallel/penum.h"
#include "parallel/pqmatch.h"

namespace qgp::bench {

struct ParallelAlgo {
  const char* name;
  bool enum_based;
  bool incremental;
  size_t threads_per_worker;
};

/// The paper runs b = 4 threads per 4-vCPU worker; this host has 2
/// cores, so the faithful adaptation is b = 2 for the threaded variants.
inline std::vector<ParallelAlgo> StandardParallelAlgos() {
  return {{"PEnum", true, false, 1},
          {"PQMatchs", false, true, 1},
          {"PQMatchn", false, false, 2},
          {"PQMatch", false, true, 2}};
}

struct ParallelRun {
  double seconds = 0;       // summed simulated parallel time over suite
  size_t answers = 0;       // summed answer counts
  std::string note;         // non-empty on error/cap
  bool ok = true;
};

inline ParallelRun RunParallelSuite(const ParallelAlgo& algo,
                                    const std::vector<Pattern>& suite,
                                    const Partition& partition,
                                    uint64_t enum_cap = 3'000'000) {
  ParallelRun run;
  // One pool per variant, b wide: the fragments run one at a time, each
  // verifying its foci across the whole pool.
  ThreadPool pool(algo.threads_per_worker);
  ParallelConfig cfg;
  cfg.mode = ExecutionMode::kSimulated;
  cfg.pool = &pool;
  cfg.match.use_incremental_negation = algo.incremental;
  cfg.match.max_isomorphisms = algo.enum_based ? enum_cap : 0;
  for (const Pattern& q : suite) {
    Result<ParallelRunResult> r =
        algo.enum_based ? PEnum::Evaluate(q, partition, cfg)
                        : PQMatch::Evaluate(q, partition, cfg);
    if (!r.ok()) {
      run.ok = false;
      run.note = r.status().ToString();
      continue;
    }
    run.seconds += r->parallel_seconds;
    run.answers += r->answers.size();
  }
  return run;
}

/// Prints one table row: n (or another x value) followed by per-algorithm
/// times.
inline void PrintAlgoHeader(const char* xlabel) {
  std::printf("%8s  %12s  %12s  %12s  %12s  %9s\n", xlabel, "PEnum",
              "PQMatchs", "PQMatchn", "PQMatch", "|answers|");
}

/// One row of the standard four-algorithm table; "DNF" marks a variant
/// that could not finish (e.g. Enum hit its isomorphism cap).
inline void PrintAlgoRow(const std::string& label, const ParallelRun runs[4],
                         size_t answers) {
  std::printf("%8s", label.c_str());
  for (size_t a = 0; a < 4; ++a) {
    if (!runs[a].ok && runs[a].seconds <= 0) {
      std::printf("  %12s", "DNF");
    } else {
      std::printf("  %12.3f", runs[a].seconds);
    }
  }
  std::printf("  %9zu\n", answers);
}

/// Runs the standard four algorithms over a suite and prints the row;
/// when `reporter` is given, also records one JSON row per algorithm
/// ("<label>/<algo>"). Returns the full-PQMatch time (last column) for
/// speedup summaries.
inline double RunAndPrintRow(const std::string& label,
                             const std::vector<Pattern>& suite,
                             const Partition& partition,
                             BenchReporter* reporter = nullptr) {
  ParallelRun runs[4];
  size_t answers = 0;
  auto algos = StandardParallelAlgos();
  for (size_t a = 0; a < algos.size(); ++a) {
    runs[a] = RunParallelSuite(algos[a], suite, partition);
    if (runs[a].answers > answers) answers = runs[a].answers;
    if (reporter != nullptr) {
      reporter->Add(label + "/" + algos[a].name, runs[a].seconds * 1e3,
                    {{"answers", static_cast<double>(runs[a].answers)},
                     {"ok", runs[a].ok ? 1.0 : 0.0}});
    }
  }
  PrintAlgoRow(label, runs, answers);
  return runs[3].seconds;
}

}  // namespace qgp::bench

#endif  // QGP_BENCH_COMMON_PARALLEL_RUNNER_H_
