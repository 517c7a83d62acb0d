// Sharded scatter-gather overhead bench: the same §7-style workload
// evaluated by one QueryEngine and by a ShardedEngine at 1, 2 and 4
// in-process shards over the identical graph. Every sharded answer set
// is identity-asserted against the single engine (a faster wrong
// coordinator is not a result), so the rows isolate what sharding
// itself costs or buys:
//
//   * single/suite         — the reference pass, one engine;
//   * shardsN/create       — ShardedEngine::Create (DPar, partition
//                            validation, shard engines), CPU time in
//                            metrics.cpu_ms;
//   * shardsN/suite        — the same pass scattered over N shards;
//   * shards4/delta        — mean wall time per batch of a fixed
//                            stream of inverse pairs (add four absent
//                            follow edges, then remove them) routed
//                            through the 4-shard coordinator; the suite
//                            is re-asserted against the reference after
//                            the stream;
//   * per-row metrics      — summed answers, the slowest shard's wall
//                            clock (the scatter's critical path) and
//                            gather_overhead_ms = coordinator wall
//                            minus that critical path, i.e. the cost of
//                            the scatter fan-out + answer mapping +
//                            merge.
//
// Emits BENCH_shard_scatter.json; the shards1 row is the pure
// coordination tax (one shard, zero distribution win).
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench/common/bench_common.h"
#include "engine/query_engine.h"
#include "shard/sharded_engine.h"

using namespace qgp;
using namespace qgp::bench;
using shard::ShardedEngine;
using shard::ShardedOptions;

namespace {

void Die(const char* what) {
  std::printf("FATAL: %s\n", what);
  std::exit(1);
}

double CpuMillis() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// Inverse pairs over the persons of `g` (ids [0, users)): batch 2i adds
// four follow edges the graph lacks, batch 2i + 1 removes the same four.
std::vector<NamedGraphDelta> InversePairStream(const Graph& g, size_t pairs) {
  const size_t users = g.NumVerticesWithLabel(g.dict().Find("person"));
  const Label follow = g.dict().Find("follow");
  std::vector<NamedGraphDelta> stream;
  uint64_t k = 0;
  for (size_t p = 0; p < pairs; ++p) {
    NamedGraphDelta add, remove;
    while (add.add_edges.size() < 4) {
      ++k;
      const auto src = static_cast<VertexId>((k * 37) % users);
      const auto dst = static_cast<VertexId>((k * 91 + 13) % users);
      if (src == dst || g.HasEdge(src, dst, follow)) continue;
      add.add_edges.push_back({src, dst, "follow"});
      remove.remove_edges.push_back({src, dst, "follow"});
    }
    stream.push_back(std::move(add));
    stream.push_back(std::move(remove));
  }
  return stream;
}

}  // namespace

int main() {
  PrintHeader("shard_scatter — multi-fragment serving coordinator",
              "one graph, 1/2/4 in-process shards vs a single engine",
              "answers byte-identical; gather overhead is the tracked cost");
  Graph g = MakePokecLike(600);
  PrintGraphLine("graph", g);
  BenchReporter reporter("shard_scatter");

  const int d = 2;
  std::vector<Pattern> suite =
      MakeSuite(g, 6, PatternConfig(4, 5, 30.0, 0), /*seed=*/303,
                /*max_radius=*/d);
  if (suite.empty()) Die("pattern generation produced an empty workload");
  std::printf("workload: %zu patterns (radius <= %d)\n\n", suite.size(), d);

  EngineOptions engine_options;
  engine_options.num_threads = 2;

  // Reference pass: the single engine, same per-shard thread budget.
  QueryEngine single(&g, engine_options);
  std::vector<AnswerSet> reference;
  size_t total_answers = 0;
  const double single_ms = TimeSeconds([&] {
                             for (const Pattern& p : suite) {
                               QuerySpec spec;
                               spec.pattern = p;
                               auto out = single.Submit(spec);
                               if (!out.ok()) Die("single-engine query failed");
                               total_answers += out->answers.size();
                               reference.push_back(std::move(out->answers));
                             }
                           }) *
                           1000.0;
  std::printf("%-14s %10.2f ms   answers=%zu\n", "single/suite", single_ms,
              total_answers);
  reporter.Add("single/suite", single_ms,
               {{"answers", static_cast<double>(total_answers)},
                {"patterns", static_cast<double>(suite.size())}});

  for (size_t shards : {1u, 2u, 4u}) {
    ShardedOptions sopts;
    sopts.num_shards = shards;
    sopts.d = d;
    sopts.engine = engine_options;
    Graph copy = g;
    const double cpu_start = CpuMillis();
    WallTimer create_timer;
    auto sharded = ShardedEngine::Create(std::move(copy), sopts);
    const double create_ms = create_timer.ElapsedMillis();
    const double create_cpu_ms = CpuMillis() - cpu_start;
    if (!sharded.ok()) Die("ShardedEngine::Create failed");
    const std::string create_config =
        "shards" + std::to_string(shards) + "/create";
    std::printf("%-14s %10.2f ms   cpu=%.2f ms\n", create_config.c_str(),
                create_ms, create_cpu_ms);
    reporter.Add(create_config, create_ms,
                 {{"num_shards", static_cast<double>(shards)},
                  {"cpu_ms", create_cpu_ms}});

    double critical_path_ms = 0;  // sum over queries of slowest shard
    double coordinator_ms = 0;    // sum of ShardedOutcome wall clocks
    const double wall_ms =
        TimeSeconds([&] {
          for (size_t i = 0; i < suite.size(); ++i) {
            QuerySpec spec;
            spec.pattern = suite[i];
            auto out = (*sharded)->Submit(spec);
            if (!out.ok()) Die("sharded query failed");
            // Identity gate: sharding may never change an answer.
            if (out->answers != reference[i]) Die("sharded answers diverged");
            double slowest = 0;
            for (const auto& slice : out->shards) {
              if (!slice.ok) Die("shard slice failed");
              if (slice.wall_ms > slowest) slowest = slice.wall_ms;
            }
            critical_path_ms += slowest;
            coordinator_ms += out->wall_ms;
          }
        }) *
        1000.0;
    const double gather_overhead_ms = coordinator_ms - critical_path_ms;
    const std::string config = "shards" + std::to_string(shards) + "/suite";
    std::printf("%-14s %10.2f ms   slowest-shard=%.2f ms  gather=%.2f ms\n",
                config.c_str(), wall_ms, critical_path_ms, gather_overhead_ms);
    reporter.Add(config, wall_ms,
                 {{"answers", static_cast<double>(total_answers)},
                  {"num_shards", static_cast<double>(shards)},
                  {"critical_path_ms", critical_path_ms},
                  {"gather_overhead_ms", gather_overhead_ms}});
    if (shards != 4) continue;

    const std::vector<NamedGraphDelta> stream =
        InversePairStream(g, /*pairs=*/8);
    size_t touched = 0, imported = 0;
    const double delta_ms =
        TimeSeconds([&] {
          for (const NamedGraphDelta& delta : stream) {
            auto out = (*sharded)->ApplyDelta(delta);
            if (!out.ok()) Die("routed delta failed");
            touched += out->shards_touched;
            imported += out->vertices_imported;
          }
        }) *
        1000.0 / static_cast<double>(stream.size());
    // Every pair restores the graph, so the suite must answer as before.
    for (size_t i = 0; i < suite.size(); ++i) {
      QuerySpec spec;
      spec.pattern = suite[i];
      auto out = (*sharded)->Submit(spec);
      if (!out.ok() || out->answers != reference[i]) {
        Die("answers diverged after the delta stream");
      }
    }
    std::printf("%-14s %10.2f ms   per batch, %zu batches, imported=%zu\n",
                "shards4/delta", delta_ms, stream.size(), imported);
    reporter.Add("shards4/delta", delta_ms,
                 {{"batches", static_cast<double>(stream.size())},
                  {"shards_touched", static_cast<double>(touched)},
                  {"vertices_imported", static_cast<double>(imported)}});
  }

  if (!reporter.Write()) Die("failed to write BENCH_shard_scatter.json");
  return 0;
}
