// Micro-benchmark for the DMatch hot path (no google-benchmark
// dependency): ball extraction for a batch of foci (one one-source BFS
// per focus vs one multi-source BFS), CandidateSpace::Build (the
// cold-start phase) serial vs a thread-count sweep plus the label/degree
// intern pool, the DPar partition phase, the work-stealing scheduler on
// skewed tasks, and QMatch end to end with the Build phase split out.
// Emits BENCH_micro_dmatch.json; the "build/*" and "qmatch/*" rows are
// the tracked numbers for the construction phase and the search, and
// tools/compare_bench.py gates CI on them.
#include <algorithm>

#include "bench/common/bench_common.h"
#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_space.h"
#include "core/qmatch.h"
#include "graph/graph_algorithms.h"
#include "parallel/dpar.h"

namespace qgp::bench {
namespace {

// Times `fn` in kBlocks equal blocks, ~0.3 s in all; returns the
// fastest block's ms per call. A co-tenant burst slows only the blocks
// it lands in, so it cannot set the reading on its own.
template <typename Fn>
double TimePerCall(Fn&& fn, size_t* iters_out) {
  constexpr size_t kBlocks = 5;
  // Calibrate.
  WallTimer cal;
  fn();
  double once = cal.ElapsedSeconds();
  size_t iters = once > 0 ? static_cast<size_t>(0.3 / kBlocks / once) : 400;
  iters = std::clamp<size_t>(iters, 1, 400);
  double best_ms = 0;
  for (size_t b = 0; b < kBlocks; ++b) {
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) fn();
    const double ms = timer.ElapsedMillis() / static_cast<double>(iters);
    if (b == 0 || ms < best_ms) best_ms = ms;
  }
  if (iters_out != nullptr) *iters_out = iters * kBlocks;
  return best_ms;
}

// Ball extraction for one batch of foci at `radius`, levels kept as the
// verifier keeps them: one KHopBallsFiltered call per focus (what a
// batch of one, VerifyFocus, runs) vs one call for the whole batch (the
// focus map). Both sides decode every focus's sorted ball, and the
// batch's balls must equal the per-focus ones.
void BallCase(const char* name, const Graph& g, int radius,
              std::span<const VertexId> foci, BenchReporter& reporter) {
  const BallFilter all_labels = BallFilter::Uniform(radius);
  const size_t limit = g.num_vertices();
  MultiBallScratch single;
  MultiBallScratch multi;
  std::vector<VertexId> decoded;
  std::vector<VertexId> expect;

  KHopBallsFiltered(g, foci, radius, all_labels, limit, &multi, true);
  size_t members = 0;
  for (size_t i = 0; i < foci.size(); ++i) {
    KHopBallsFiltered(g, foci.subspan(i, 1), radius, all_labels, limit,
                      &single, true);
    expect.clear();
    single.AppendBallSorted(0, expect);
    decoded.clear();
    multi.AppendBallSorted(i, decoded);
    if (((multi.complete >> i) & 1ULL) != (single.complete & 1ULL) ||
        decoded != expect) {
      std::printf("FATAL: batched ball of focus %u differs\n", foci[i]);
      std::exit(1);
    }
    members += decoded.size();
  }

  volatile size_t sink = 0;
  size_t per_iters = 0;
  const double per_ms = TimePerCall(
      [&] {
        size_t total = 0;
        for (size_t i = 0; i < foci.size(); ++i) {
          KHopBallsFiltered(g, foci.subspan(i, 1), radius, all_labels, limit,
                            &single, true);
          decoded.clear();
          single.AppendBallSorted(0, decoded);
          total += decoded.size();
        }
        sink = sink + total;
      },
      &per_iters);
  size_t batch_iters = 0;
  const double batch_ms = TimePerCall(
      [&] {
        KHopBallsFiltered(g, foci, radius, all_labels, limit, &multi, true);
        size_t total = 0;
        for (size_t i = 0; i < foci.size(); ++i) {
          decoded.clear();
          multi.AppendBallSorted(i, decoded);
          total += decoded.size();
        }
        sink = sink + total;
      },
      &batch_iters);

  const double avg_ball =
      static_cast<double>(members) / static_cast<double>(foci.size());
  const double speedup = batch_ms > 0 ? per_ms / batch_ms : 0.0;
  std::printf("balls/%-10s foci=%zu avg|ball|=%-7.1f per-focus %8.4f ms  "
              "batched %8.4f ms  speedup %5.2fx\n",
              name, foci.size(), avg_ball, per_ms, batch_ms, speedup);
  const double n_foci = static_cast<double>(foci.size());
  reporter.Add(std::string("balls/") + name + "/per_focus", per_ms,
               {{"foci", n_foci},
                {"avg_ball", avg_ball},
                {"iters", static_cast<double>(per_iters)}});
  reporter.Add(std::string("balls/") + name + "/batched", batch_ms,
               {{"foci", n_foci},
                {"avg_ball", avg_ball},
                {"iters", static_cast<double>(batch_iters)},
                {"speedup_vs_per_focus", speedup}});
}

size_t TotalCandidates(const CandidateSpace& cs) {
  size_t n = 0;
  for (PatternNodeId u = 0; u < cs.num_pattern_nodes(); ++u) {
    n += cs.stratified(u).size() + cs.good(u).size();
  }
  return n;
}

// Build-phase sweep: serial CandidateSpace::Build vs a pool at 1/2/4/8
// threads (the default simulation-on path QMatch runs), plus the
// non-simulation path with and without the intern pool. Every parallel
// result is checked byte-identical against the serial one — the speedup
// can never come from computing something different.
void BuildCase(const Graph& g, const Pattern& positive,
               BenchReporter& reporter) {
  MatchOptions opts;
  volatile size_t sink = 0;

  size_t serial_iters = 0;
  double serial_ms = TimePerCall(
      [&] {
        auto cs = CandidateSpace::Build(positive, g, opts, nullptr);
        sink = sink + TotalCandidates(*cs);
      },
      &serial_iters);
  std::printf("build/serial            %9.3f ms\n", serial_ms);
  reporter.Add("build/serial", serial_ms,
               {{"iters", static_cast<double>(serial_iters)}});

  auto serial_cs = CandidateSpace::Build(positive, g, opts, nullptr);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    size_t iters = 0;
    double ms = TimePerCall(
        [&] {
          auto cs =
              CandidateSpace::Build(positive, g, opts, nullptr, &pool);
          sink = sink + TotalCandidates(*cs);
        },
        &iters);
    auto par_cs = CandidateSpace::Build(positive, g, opts, nullptr, &pool);
    for (PatternNodeId u = 0; u < serial_cs->num_pattern_nodes(); ++u) {
      const auto s = serial_cs->stratified(u);
      const auto p = par_cs->stratified(u);
      const auto sg = serial_cs->good(u);
      const auto pg = par_cs->good(u);
      if (!std::equal(s.begin(), s.end(), p.begin(), p.end()) ||
          !std::equal(sg.begin(), sg.end(), pg.begin(), pg.end())) {
        std::printf("FATAL: parallel Build diverged at %zu threads\n",
                    threads);
        std::exit(1);
      }
    }
    double speedup = ms > 0 ? serial_ms / ms : 0.0;
    std::printf("build/threads=%zu        %9.3f ms  speedup %5.2fx\n",
                threads, ms, speedup);
    reporter.Add("build/threads=" + std::to_string(threads), ms,
                 {{"iters", static_cast<double>(iters)},
                  {"speedup_vs_serial", speedup}});
  }

  // Intern pool: the plain (no-simulation) build path EnumMatcher and the
  // PQMatch/PEnum fragment workers run, cold vs warm cache.
  MatchOptions plain = opts;
  plain.use_simulation = false;
  size_t cold_iters = 0;
  double cold_ms = TimePerCall(
      [&] {
        auto cs = CandidateSpace::Build(positive, g, plain, nullptr);
        sink = sink + TotalCandidates(*cs);
      },
      &cold_iters);
  CandidateCache cache(g);
  (void)CandidateSpace::Build(positive, g, plain, nullptr, nullptr, &cache);
  size_t warm_iters = 0;
  double warm_ms = TimePerCall(
      [&] {
        auto cs =
            CandidateSpace::Build(positive, g, plain, nullptr, nullptr,
                                  &cache);
        sink = sink + TotalCandidates(*cs);
      },
      &warm_iters);
  double cache_speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("build/plain/cold        %9.3f ms\n", cold_ms);
  std::printf("build/plain/interned    %9.3f ms  speedup %5.2fx\n", warm_ms,
              cache_speedup);
  reporter.Add("build/plain/cold", cold_ms,
               {{"iters", static_cast<double>(cold_iters)}});
  reporter.Add("build/plain/interned", warm_ms,
               {{"iters", static_cast<double>(warm_iters)},
                {"speedup_vs_cold", cache_speedup}});
}

// DPar partition phase: serial vs the work-stealing pool (boundary scan,
// border BFS rounds, ball extraction + size estimation, materialization
// all fan out). The pool-built partition is checked IDENTICAL to the
// serial one — the speedup can never come from partitioning differently.
void DParCase(const Graph& g, BenchReporter& reporter) {
  DParConfig dc;
  dc.num_fragments = 8;
  dc.d = 2;
  volatile size_t sink = 0;

  size_t serial_iters = 0;
  double serial_ms = TimePerCall(
      [&] {
        auto p = DPar(g, dc);
        if (!p.ok()) std::exit(1);
        sink = sink + p->num_border_nodes;
      },
      &serial_iters);
  std::printf("dpar/partition_phase/serial    %9.3f ms\n", serial_ms);
  reporter.Add("dpar/partition_phase/serial", serial_ms,
               {{"iters", static_cast<double>(serial_iters)},
                {"fragments", static_cast<double>(dc.num_fragments)}});

  auto serial_part = DPar(g, dc);
  ThreadPool pool(4);
  size_t par_iters = 0;
  double par_ms = TimePerCall(
      [&] {
        auto p = DPar(g, dc, nullptr, &pool);
        if (!p.ok()) std::exit(1);
        sink = sink + p->num_border_nodes;
      },
      &par_iters);
  auto par_part = DPar(g, dc, nullptr, &pool);
  if (!serial_part.ok() || !par_part.ok()) {
    std::printf("FATAL: DPar identity-check run failed\n");
    std::exit(1);
  }
  if (!PartitionsIdentical(*serial_part, *par_part)) {
    std::printf("FATAL: pool-parallel DPar diverged from serial\n");
    std::exit(1);
  }
  double speedup = par_ms > 0 ? serial_ms / par_ms : 0.0;
  std::printf("dpar/partition_phase/parallel  %9.3f ms  speedup %5.2fx\n",
              par_ms, speedup);
  reporter.Add("dpar/partition_phase/parallel", par_ms,
               {{"iters", static_cast<double>(par_iters)},
                {"threads", 4.0},
                {"speedup_vs_serial", speedup}});
}

// Work-stealing sweep on a deliberately skewed task set: the ~100x
// heavy tasks are CLUSTERED in the first indices, so only the
// round-robin deal plus stealing keeps them off a single runner. The
// output slots are asserted identical to the serial loop before
// anything is reported.
void StealSweepCase(BenchReporter& reporter) {
  // Sized so every row sits comfortably ABOVE the bench gate's 2 ms
  // noise floor (~8 ms here): rows that straddle the floor would flip
  // between gated and ungated on every baseline regeneration.
  constexpr size_t kTasks = 1024;
  auto cost_of = [](size_t i) -> uint64_t { return i < 64 ? 60000 : 600; };
  auto work = [&](size_t i) {
    uint64_t h = i * 0x9e3779b97f4a7c15ULL + 1;
    const uint64_t rounds = cost_of(i);
    for (uint64_t r = 0; r < rounds; ++r) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
    }
    return h;
  };
  std::vector<uint64_t> expected(kTasks);
  for (size_t i = 0; i < kTasks; ++i) expected[i] = work(i);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<uint64_t> dyn_slots(kTasks, 0);
    size_t dyn_iters = 0;
    uint64_t stolen = 0;
    auto fill = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) dyn_slots[i] = work(i);
    };
    double dyn_ms = TimePerCall(
        [&] {
          stolen +=
              ThreadPool::ParallelForDynamic(&pool, kTasks, 4, fill).stolen;
        },
        &dyn_iters);
    if (dyn_slots != expected) {
      std::printf("FATAL: dynamic schedule produced wrong slots\n");
      std::exit(1);
    }
    const double steals =
        static_cast<double>(stolen) / static_cast<double>(dyn_iters + 1);
    std::printf(
        "scheduler/steal_sweep threads=%zu  dynamic %8.3f ms  steals/run "
        "%6.1f\n",
        threads, dyn_ms, steals);
    reporter.Add(
        "scheduler/steal_sweep/dynamic/threads=" + std::to_string(threads),
        dyn_ms,
        {{"iters", static_cast<double>(dyn_iters)},
         {"steals_per_run", steals}});
  }
}

}  // namespace
}  // namespace qgp::bench

int main() {
  using namespace qgp::bench;
  using namespace qgp;
  PrintHeader("Micro: DMatch hot-path kernels",
              "ball batches, build sweep, DPar, scheduler, QMatch e2e",
              "batched and parallel phases vs their serial forms");
  BenchReporter reporter("micro_dmatch");
  Graph g = MakePokecLike(2000);
  PrintGraphLine("pokec-like", g);
  std::vector<Pattern> suite =
      MakeSuite(g, 3, PatternConfig(5, 7, 30.0, 0), 77);
  if (suite.empty()) {
    std::printf("pattern generation failed\n");
    return 1;
  }
  MatchOptions opts;
  auto pi = suite[0].Pi();
  if (!pi.ok()) {
    std::printf("Pi failed: %s\n", pi.status().ToString().c_str());
    return 1;
  }
  auto cs = CandidateSpace::Build(pi->first, g, opts, nullptr);
  if (!cs.ok()) {
    std::printf("candidate space failed: %s\n",
                cs.status().ToString().c_str());
    return 1;
  }

  // Ball extraction: the first batch of good focus candidates the cold
  // focus map would verify together, at radius 1 and 2.
  std::printf("\n");
  const std::span<const VertexId> good = cs->good(pi->first.focus());
  const std::span<const VertexId> batch =
      good.first(std::min<size_t>(good.size(), kMaxBallSources));
  BallCase("r1", g, 1, batch, reporter);
  BallCase("r2", g, 2, batch, reporter);

  // Build phase (cold-start cost): serial vs thread sweep vs interning.
  std::printf("\n");
  BuildCase(g, pi->first, reporter);

  // DPar partition phase: serial vs the work-stealing pool.
  std::printf("\n");
  DParCase(g, reporter);

  // Scheduler: static vs work-stealing dynamic dispatch on skewed tasks.
  std::printf("\n");
  StealSweepCase(reporter);

  // End to end: sequential QMatch over the suite, with the Build phase
  // split out (the Π(Q) candidate-space construction per pattern) so the
  // bench gate can track construction cost separately from matching.
  // One pass collects the answers and work counters; the suite row is
  // the fastest of TimePerCall's blocks of further passes.
  MatchStats stats;
  double build_seconds = 0;
  size_t answers = 0;
  for (const Pattern& q : suite) {
    auto q_pi = q.Pi();
    if (q_pi.ok()) {
      build_seconds += TimeSeconds([&] {
        auto built = CandidateSpace::Build(q_pi->first, g, opts, nullptr);
        if (!built.ok()) std::exit(1);
      });
    }
    auto r = QMatch::Evaluate(q, g, opts, &stats);
    if (r.ok()) answers += r->size();
  }
  size_t suite_iters = 0;
  const double suite_ms = TimePerCall(
      [&] {
        for (const Pattern& q : suite) (void)QMatch::Evaluate(q, g, opts);
      },
      &suite_iters);
  std::printf(
      "\nQMatch end-to-end: %.3f ms per suite pass (fastest of %zu passes in "
      "5 blocks; build phase %.3fs), answers=%zu\n",
      suite_ms, suite_iters, build_seconds, answers);
  reporter.Add("qmatch/suite", suite_ms,
               {{"answers", static_cast<double>(answers)},
                {"patterns", static_cast<double>(suite.size())},
                {"iters", static_cast<double>(suite_iters)}},
               &stats);
  reporter.Add("qmatch/build_phase", build_seconds * 1e3,
               {{"patterns", static_cast<double>(suite.size())}});
  return 0;
}
