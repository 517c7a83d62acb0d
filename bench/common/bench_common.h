#ifndef QGP_BENCH_COMMON_BENCH_COMMON_H_
#define QGP_BENCH_COMMON_BENCH_COMMON_H_

// Shared scaffolding for the figure-reproduction benches: scaled dataset
// construction (Pokec / YAGO2 substitutes; docs/ARCHITECTURE.md,
// "Experimental substitutions"), §7-style
// pattern workloads, timing helpers and paper-style table printing.
//
// Every bench binary runs with no arguments; QGP_BENCH_SCALE =
// tiny|small|medium|large scales the workloads.

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/timer.h"
#include "core/match_types.h"
#include "core/pattern.h"
#include "core/pattern_analysis.h"
#include "gen/knowledge_gen.h"
#include "gen/pattern_gen.h"
#include "gen/social_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph.h"

namespace qgp {
struct Partition;  // parallel/partition.h — only the DPar benches need it
}

namespace qgp::bench {

/// Workload multiplier from QGP_BENCH_SCALE.
inline double ScaleFactor() { return BenchScaleFactor(GetBenchScale()); }

/// Machine-readable benchmark record. Each bench binary owns one
/// BenchReporter and Add()s a row per (config point, measurement); on
/// destruction (or explicit Write()) the reporter emits
/// `$QGP_BENCH_OUT/BENCH_<name>.json` carrying wall-ms per config point,
/// optional MatchStats counters, the QGP_BENCH_SCALE setting and the git
/// revision (from $QGP_GIT_REV, injected by tools/run_bench.sh). The
/// paper-style stdout tables stay; this is the tracked trajectory.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {}
  ~BenchReporter() {
    if (!written_) Write();
  }
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// Records one measurement. `config` identifies the point (e.g.
  /// "pokec5/QMatch"), `wall_ms` its wall-clock cost; `extra` carries
  /// further numeric metrics (answers, speedups, |V|); `stats`, when
  /// given, is serialized counter by counter.
  void Add(const std::string& config, double wall_ms,
           std::vector<std::pair<std::string, double>> extra = {},
           const MatchStats* stats = nullptr);

  /// Writes BENCH_<name>.json; returns false on I/O failure. Idempotent.
  bool Write();

  /// Resolved output directory: $QGP_BENCH_OUT, or "." when unset.
  static std::string OutputDir();

 private:
  struct Row {
    std::string config;
    double wall_ms = 0;
    std::vector<std::pair<std::string, double>> extra;
    std::optional<MatchStats> stats;
  };

  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
};

/// Pokec substitute at `users_base * ScaleFactor()` users.
inline Graph MakePokecLike(size_t users_base) {
  SocialConfig c;
  c.num_users = static_cast<size_t>(users_base * ScaleFactor());
  if (c.num_users < 200) c.num_users = 200;
  c.num_products = std::max<size_t>(20, c.num_users / 100);
  c.num_albums = std::max<size_t>(10, c.num_users / 200);
  c.community_size = 250;
  c.seed = 7;
  return std::move(GenerateSocialGraph(c)).value();
}

/// YAGO2 substitute at `scientists_base * ScaleFactor()` scientists.
inline Graph MakeYagoLike(size_t scientists_base) {
  KnowledgeConfig c;
  c.num_scientists = static_cast<size_t>(scientists_base * ScaleFactor());
  if (c.num_scientists < 200) c.num_scientists = 200;
  c.num_universities = std::max<size_t>(20, c.num_scientists / 100);
  c.seed = 11;
  return std::move(GenerateKnowledgeGraph(c)).value();
}

/// GTgraph-style synthetic graph (small-world), |V| and |E| as given.
inline Graph MakeSynthetic(size_t vertices, size_t edges) {
  SyntheticConfig c;
  c.num_vertices = vertices;
  c.num_edges = edges;
  c.num_node_labels = 30;
  c.num_edge_labels = 10;
  c.seed = 13;
  return std::move(GenerateSynthetic(c)).value();
}

/// §7 pattern-size notation (|VQ|, |EQ|, pa%, |E−Q|) → generator config.
inline PatternGenConfig PatternConfig(size_t nodes, size_t edges, double pa,
                                      size_t negated,
                                      size_t quantified = 2) {
  PatternGenConfig c;
  c.num_nodes = nodes;
  c.num_edges = edges;
  c.num_quantified = quantified;
  c.kind = QuantKind::kRatio;
  c.op = QuantOp::kGe;
  c.percent = pa;
  c.num_negated = negated;
  return c;
}

/// Generates up to `count` patterns whose radius fits `max_radius`
/// (<= 0 means unconstrained). When `enum_probe_cap` > 0, patterns are
/// additionally screened so the Enum baseline can finish them within
/// that per-focus embedding budget — the paper's Enum ([35]) completes
/// all its workloads, so the four-way comparisons only make sense on
/// such patterns (docs/ARCHITECTURE.md, "Experimental substitutions").
std::vector<Pattern> MakeSuite(const Graph& g, size_t count,
                               const PatternGenConfig& config, uint64_t seed,
                               int max_radius = 0,
                               uint64_t enum_probe_cap = 0);

/// Rewrites every ratio quantifier of `base` to `percent` (used by the
/// pa sweeps: same topology, different aggregate).
inline Pattern WithRatioPercent(const Pattern& base, double percent) {
  Pattern q;
  for (PatternNodeId u = 0; u < base.num_nodes(); ++u) {
    q.AddNode(base.node(u).label, base.node(u).name);
  }
  for (PatternEdgeId e = 0; e < base.num_edges(); ++e) {
    const PatternEdge& pe = base.edge(e);
    Quantifier quant = pe.quantifier;
    if (!quant.IsExistential() && quant.kind() == QuantKind::kRatio) {
      quant = Quantifier::Ratio(quant.op(), percent);
    }
    (void)q.AddEdge(pe.src, pe.dst, pe.label, quant);
  }
  (void)q.set_focus(base.focus());
  return q;
}

/// Times one call.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Strict partition identity: the "parallel DPar == serial DPar"
/// contract, in one place for every bench that asserts it. Compares the
/// base regions, border count, and every fragment's ownership, vertex
/// mapping and edge count. (Defined in bench_common.cc so the DPar and
/// ThreadPool headers stay out of the other bench TUs.)
bool PartitionsIdentical(const Partition& a, const Partition& b);

/// Shared by the fig8d/8e DPar benches: one real-threads partitioning
/// point (n=8, d=2) — serial wall time vs the work-stealing pool at
/// this host's core count, identity-checked (the speedup can never come
/// from partitioning differently). Emits an "n=8/d=2/pool_wall" row.
/// Returns false on failure.
bool ReportPoolVsSerialDPar(const Graph& g, BenchReporter& reporter);

/// Header block: what figure this reproduces and what the paper reports.
inline void PrintHeader(const std::string& figure,
                        const std::string& setting,
                        const std::string& paper_trend) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("  setting : %s\n", setting.c_str());
  std::printf("  paper   : %s\n", paper_trend.c_str());
  std::printf("  scale   : %s (QGP_BENCH_SCALE)\n",
              BenchScaleName(GetBenchScale()));
  std::printf("==============================================================\n");
}

inline void PrintGraphLine(const char* name, const Graph& g) {
  std::printf("%s: |V|=%zu |E|=%zu\n", name, g.num_vertices(),
              g.num_edges());
}

}  // namespace qgp::bench

#endif  // QGP_BENCH_COMMON_BENCH_COMMON_H_
