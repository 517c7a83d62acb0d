// Parallel quantified matching (§5): build a d-hop preserving partition
// with DPar, evaluate a generated QGP with PQMatch over n = 2..8 logical
// workers, and print the speedup curve plus partition quality.
//
//   ./examples/parallel_matching [num_users] [d]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "parallel/dpar.h"
#include "parallel/pqmatch.h"

int main(int argc, char** argv) {
  size_t num_users = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4000;
  int d = argc > 2 ? std::atoi(argv[2]) : 2;

  qgp::SocialConfig config;
  config.num_users = num_users;
  qgp::Graph g = std::move(qgp::GenerateSocialGraph(config)).value();
  std::printf("graph: %zu vertices, %zu edges; d = %d\n", g.num_vertices(),
              g.num_edges(), d);

  // One pattern with a ratio quantifier and one negated edge, grown from
  // a real instance so answers are non-trivial.
  qgp::PatternGenConfig pc;
  pc.num_nodes = 4;
  pc.num_edges = 4;
  pc.num_quantified = 1;
  pc.percent = 40.0;
  pc.num_negated = 1;
  std::vector<qgp::Pattern> suite;
  for (uint64_t seed = 1; suite.empty() && seed < 16; ++seed) {
    for (qgp::Pattern& q : qgp::GeneratePatternSuite(g, 4, pc, seed)) {
      if (q.Radius() <= d) {
        suite.push_back(std::move(q));
        break;
      }
    }
  }
  if (suite.empty()) {
    std::fprintf(stderr, "could not generate a pattern with radius <= d\n");
    return 1;
  }
  const qgp::Pattern& q = suite.front();
  std::printf("\npattern:\n%s\n", q.ToString(&g.dict()).c_str());

  std::printf("%4s  %10s  %10s  %8s  %8s  %9s\n", "n", "parallel_s",
              "total_work", "speedup", "skew", "|answers|");
  double t1 = 0;
  for (size_t n : {1, 2, 4, 8}) {
    qgp::DParConfig dc;
    dc.num_fragments = n;
    dc.d = d;
    auto part = qgp::DPar(g, dc);
    if (!part.ok()) {
      std::fprintf(stderr, "%s\n", part.status().ToString().c_str());
      return 1;
    }
    qgp::ParallelConfig cfg;  // simulated makespan mode
    auto res = qgp::PQMatch::Evaluate(q, *part, cfg);
    if (!res.ok()) {
      std::fprintf(stderr, "%s\n", res.status().ToString().c_str());
      return 1;
    }
    if (n == 1) t1 = res->parallel_seconds;
    std::printf("%4zu  %10.4f  %10.4f  %8.2f  %8.2f  %9zu\n", n,
                res->parallel_seconds, res->total_work_seconds,
                t1 / std::max(res->parallel_seconds, 1e-9), part->Skew(),
                res->answers.size());
  }
  std::printf("\n(simulated makespan mode: workers run sequentially and the"
              "\n parallel time is the slowest worker plus assembly; see"
              "\n docs/ARCHITECTURE.md)\n");
  return 0;
}
