#ifndef QGP_TESTS_TESTING_SELF_SIZING_H_
#define QGP_TESTS_TESTING_SELF_SIZING_H_

// Workload sizing for the timing-bound tests. A test that proves
// something happens *during* a long evaluation (a deadline firing
// mid-query, a drain cancelling in-flight work, a probe answered while a
// batch holds the engine) needs that evaluation to outlast the probe.
// A fixed workload size stops being long enough as soon as the matcher
// gets faster or the host does, so these tests size their workload once
// per process instead: grow it until a clean run clears the test's
// threshold with a 2x margin, then run the assertions unchanged.

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "gen/synthetic_gen.h"

namespace qgp::testing {

/// Wall milliseconds `fn()` takes on the steady clock.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Doubles `size` until `run(size)` — one clean run of the workload at
/// that size, returning its wall milliseconds — takes at least twice
/// `threshold_ms`, and returns that size. A size passes only if all of
/// `trials` runs clear the target: co-tenant noise and first-run warm-up
/// only ever inflate a time, so the fastest run is the one that cannot
/// oversell the workload (a run below target settles it at once). The 2x
/// margin absorbs the remaining difference between calibration and the
/// test's own run. Gives up after `max_doublings`; the test's own
/// precondition assertion then reports the workload as too short.
template <typename Run>
size_t GrowUntilSlow(size_t size, double threshold_ms, Run&& run,
                     int trials = 3, int max_doublings = 6) {
  const double target_ms = 2.0 * threshold_ms;
  auto long_enough = [&] {
    for (int t = 0; t < trials; ++t) {
      if (run(size) < target_ms) return false;
    }
    return true;
  };
  for (int i = 0; !long_enough() && i < max_doublings; ++i) size *= 2;
  return size;
}

/// A query that runs for at least `kSlowCaseMinMs` on the host running
/// the suite: a dense 2-label graph where every vertex is a focus
/// candidate, against a 3-hop path pattern with a counting quantifier.
/// The graph starts at 8,000 vertices and doubles until a clean kQMatch
/// run on a default engine clears kSlowCaseMinMs with the 2x margin.
/// Built once per process and shared read-only (the graph dictionary
/// already holds every label the pattern names).
struct SlowCase {
  Graph graph;
  std::string pattern_text;
};

/// The longest clean runtime any test asserts against: a 50 ms deadline
/// must fire well inside it, and a drain that waits 100 ms plus a 50 ms
/// budget must still find the query in flight.
inline constexpr double kSlowCaseMinMs = 150.0;

inline SlowCase MakeSlowCase(size_t vertices) {
  SyntheticConfig gc;
  gc.num_vertices = vertices;
  gc.num_edges = vertices * 8;
  gc.num_node_labels = 2;
  gc.num_edge_labels = 2;
  gc.seed = 99;
  SlowCase slow{std::move(GenerateSynthetic(gc)).value(),
                "node x0 nl0\nnode x1 nl0\nnode x2 nl0\n"
                "node x3 nl0\nedge x0 x1 el0 >=2\n"
                "edge x1 x2 el0\nedge x2 x3 el0\nfocus x0\n"};
  // Intern the pattern's labels once so later parses are read-only in
  // effect (they resolve against already-interned names).
  (void)PatternParser::Parse(slow.pattern_text, slow.graph.mutable_dict());
  return slow;
}

inline SlowCase& Slow() {
  static SlowCase* slow = [] {
    SlowCase* candidate = nullptr;
    GrowUntilSlow(8000, kSlowCaseMinMs, [&](size_t vertices) {
      if (candidate == nullptr || candidate->graph.num_vertices() != vertices) {
        delete candidate;
        candidate = new SlowCase(MakeSlowCase(vertices));
      }
      QuerySpec spec;
      spec.pattern = std::move(PatternParser::Parse(
                                   candidate->pattern_text,
                                   candidate->graph.mutable_dict()))
                         .value();
      spec.algo = EngineAlgo::kQMatch;
      QueryEngine engine(&candidate->graph, EngineOptions{});
      return TimeMs([&] { (void)engine.Submit(spec); });
    });
    return candidate;
  }();
  return *slow;
}

}  // namespace qgp::testing

#endif  // QGP_TESTS_TESTING_SELF_SIZING_H_
