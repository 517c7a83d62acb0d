// Ablation A1 (Appendix B): contribution of each DMatch optimization —
// dual-simulation candidate filtering, quantifier upper-bound pruning,
// potential-score ordering, and early-stopped counting. Each row turns
// ONE strategy off; the last row turns all off. The no-early-stop row
// counts every child of a quantified edge: it turns off both the stop
// once a threshold is met and the stop once it is out of reach.
#include "bench/common/bench_common.h"
#include "core/qmatch.h"

namespace qgp::bench {
namespace {

struct Variant {
  const char* name;
  MatchOptions opts;
};

void Run(const Graph& g, const std::vector<Pattern>& suite, const Variant& v,
         BenchReporter& reporter) {
  MatchStats stats;
  double seconds = 0;
  size_t answers = 0;
  bool ok = true;
  for (const Pattern& q : suite) {
    seconds += TimeSeconds([&] {
      auto r = QMatch::Evaluate(q, g, v.opts, &stats);
      if (r.ok()) {
        answers += r->size();
      } else {
        ok = false;
      }
    });
  }
  std::printf("%-18s  %10.3fs  ext=%-12llu witness=%-10llu answers=%zu%s\n",
              v.name, seconds,
              static_cast<unsigned long long>(stats.search_extensions),
              static_cast<unsigned long long>(stats.witness_searches),
              answers, ok ? "" : "  (error)");
  reporter.Add(v.name, seconds * 1e3,
               {{"answers", static_cast<double>(answers)},
                {"ok", ok ? 1.0 : 0.0}},
               &stats);
}

}  // namespace
}  // namespace qgp::bench

int main() {
  using namespace qgp::bench;
  PrintHeader("Ablation: DMatch optimization strategies (Appendix B)",
              "QMatch on pokec-like, (6,8,30%,1); one strategy off per row",
              "optimizations cut verification cost ~1.2-1.3x overall");
  qgp::Graph g = MakePokecLike(4000);
  PrintGraphLine("pokec-like", g);
  std::vector<qgp::Pattern> suite =
      MakeSuite(g, 3, PatternConfig(6, 8, 30.0, 1), 1101);
  if (suite.empty()) {
    std::printf("pattern generation failed\n");
    return 1;
  }
  std::printf("\n");

  Variant all{"all-on", {}};
  Variant no_sim{"no-simulation", {}};
  no_sim.opts.use_simulation = false;
  Variant no_prune{"no-quant-pruning", {}};
  no_prune.opts.use_quantifier_pruning = false;
  Variant no_pot{"no-potential", {}};
  no_pot.opts.use_potential_ordering = false;
  Variant no_early{"no-early-stop", {}};
  no_early.opts.early_stop_counting = false;
  Variant none{"all-off", {}};
  none.opts.use_simulation = false;
  none.opts.use_quantifier_pruning = false;
  none.opts.use_potential_ordering = false;
  none.opts.early_stop_counting = false;

  BenchReporter reporter("ablation_pruning");
  for (const Variant& v : {all, no_sim, no_prune, no_pot, no_early, none}) {
    Run(g, suite, v, reporter);
  }
  return 0;
}
