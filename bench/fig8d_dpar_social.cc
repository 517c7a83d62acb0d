// Figure 8(d): DPar d-hop preserving partition time on the Pokec
// substitute, varying n, for d = 2 and (incrementally extended) d = 3.
// Reported time is the simulated parallel time: coordinator phases plus
// the makespans of the per-fragment ball-extraction and materialization
// phases (docs/ARCHITECTURE.md, "Experimental substitutions"). The
// n=8/d=2 point is additionally measured as real wall time with
// partitioning fanned out over the work-stealing pool, identity-checked
// against the serial partition.
#include "bench/common/bench_common.h"
#include "parallel/dpar.h"

int main() {
  using namespace qgp::bench;
  PrintHeader("Figure 8(d): DPar partition time, varying n (Pokec)",
              "d=2 and d=3, n in {4,8,12,16,20}",
              "~3.5x faster from n=4 to 20 (d=2); skew >= 0.8 at n=8");
  qgp::Graph g = MakePokecLike(3000);
  PrintGraphLine("pokec-like", g);
  BenchReporter reporter("fig8d_dpar_social");
  std::printf("\n%8s  %12s  %12s  %8s  %8s\n", "n", "d=2 (s)", "d=3 (s)",
              "skew d=2", "border");
  double first = 0, last = 0;
  for (size_t n : {4, 8, 12, 16, 20}) {
    qgp::DParConfig dc;
    dc.num_fragments = n;
    dc.d = 2;
    qgp::DParTimings t2;
    auto p2 = qgp::DPar(g, dc, &t2);
    if (!p2.ok()) {
      std::printf("DPar failed: %s\n", p2.status().ToString().c_str());
      return 1;
    }
    dc.d = 3;
    qgp::DParTimings t3;
    auto p3 = qgp::DPar(g, dc, &t3);
    if (!p3.ok()) return 1;
    std::printf("%8zu  %12.3f  %12.3f  %8.2f  %8zu\n", n,
                t2.ParallelSeconds(), t3.ParallelSeconds(), p2->Skew(),
                p2->num_border_nodes);
    reporter.Add("n=" + std::to_string(n) + "/d=2",
                 t2.ParallelSeconds() * 1e3,
                 {{"skew", p2->Skew()},
                  {"border", static_cast<double>(p2->num_border_nodes)}});
    reporter.Add("n=" + std::to_string(n) + "/d=3",
                 t3.ParallelSeconds() * 1e3);
    if (n == 4) first = t2.ParallelSeconds();
    last = t2.ParallelSeconds();
  }
  if (last > 0) {
    std::printf("\nDPar speedup n=4 -> n=20 (d=2): %.2fx (paper: ~3.5x)\n",
                first / last);
  }

  // Real-threads partitioning: serial wall vs the work-stealing pool.
  if (!ReportPoolVsSerialDPar(g, reporter)) return 1;
  return 0;
}
