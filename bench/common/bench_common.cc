#include "bench/common/bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "core/enum_matcher.h"
#include "parallel/dpar.h"

namespace qgp::bench {

namespace {

// Minimal JSON string escaping: quotes, backslashes, control chars.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Revision stamped into every BENCH json: $QGP_GIT_REV when the harness
// (tools/run_bench.sh) injected it, else `git rev-parse` at run time —
// bench binaries run by hand from a repo checkout used to emit
// "git_rev": "unknown" (BENCH_exp3_qgar.json was the repeat offender),
// which made trajectories unattributable. The lookup is anchored to the
// BINARY's directory (build/bench/ inside the checkout), not the cwd —
// running a bench from some unrelated git repo must not stamp that
// repo's HEAD onto this repo's numbers.
std::string ResolveGitRev() {
  std::string rev = GetEnvString("QGP_GIT_REV", "");
  if (!rev.empty()) return rev;
  // popen goes through /bin/sh, so the directory is interpolated only
  // when it is provably inert under shell parsing. A binary whose path
  // cannot be safely interpolated gets "unknown" — never the cwd lookup,
  // which could stamp an unrelated checkout's HEAD.
  auto shell_safe = [](const std::string& s) {
    for (char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '/' || c == '.' ||
                      c == '_' || c == '-' || c == '+';
      if (!ok) return false;
    }
    return !s.empty();
  };
  std::string dir;
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len > 0) {
    exe[len] = '\0';
    dir = exe;
    const size_t slash = dir.rfind('/');
    dir = slash != std::string::npos ? dir.substr(0, slash) : std::string();
  }
  if (!shell_safe(dir)) return "unknown";
  const std::string cmd =
      "git -C " + dir + " rev-parse --short HEAD 2>/dev/null";
  if (std::FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      rev = buf;
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
    }
    ::pclose(p);
  }
  return rev.empty() ? "unknown" : rev;
}

// JSON has no NaN/Inf; clamp to null-free 0 and format with enough
// precision for millisecond timings.
void PrintJsonNumber(std::FILE* f, double v) {
  if (v != v || v > 1e300 || v < -1e300) v = 0;
  std::fprintf(f, "%.6g", v);
}

void PrintStats(std::FILE* f, const MatchStats& s) {
  const char* separator = "{";
  for (const auto& field : MatchStats::Fields()) {
    std::fprintf(f, "%s\"%s\":%" PRIu64, separator, field.name,
                 s.*field.member);
    separator = ",";
  }
  std::fprintf(f, "}");
}

}  // namespace

void BenchReporter::Add(const std::string& config, double wall_ms,
                        std::vector<std::pair<std::string, double>> extra,
                        const MatchStats* stats) {
  Row row;
  row.config = config;
  row.wall_ms = wall_ms;
  row.extra = std::move(extra);
  if (stats != nullptr) row.stats = *stats;
  rows_.push_back(std::move(row));
}

std::string BenchReporter::OutputDir() {
  return GetEnvString("QGP_BENCH_OUT", ".");
}

bool BenchReporter::Write() {
  if (written_) return true;
  written_ = true;
  const std::string path = OutputDir() + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReporter: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"bench\": \"%s\",\n",
               JsonEscape(name_).c_str());
  std::fprintf(f, "  \"scale\": \"%s\",\n", BenchScaleName(GetBenchScale()));
  std::fprintf(f, "  \"scale_factor\": ");
  PrintJsonNumber(f, ScaleFactor());
  std::fprintf(f, ",\n  \"git_rev\": \"%s\",\n",
               JsonEscape(ResolveGitRev()).c_str());
  std::fprintf(f, "  \"rows\": [");
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(f, "%s\n    {\"config\": \"%s\", \"wall_ms\": ",
                 i == 0 ? "" : ",", JsonEscape(r.config).c_str());
    PrintJsonNumber(f, r.wall_ms);
    if (!r.extra.empty()) {
      std::fprintf(f, ", \"metrics\": {");
      for (size_t k = 0; k < r.extra.size(); ++k) {
        std::fprintf(f, "%s\"%s\": ", k == 0 ? "" : ", ",
                     JsonEscape(r.extra[k].first).c_str());
        PrintJsonNumber(f, r.extra[k].second);
      }
      std::fprintf(f, "}");
    }
    if (r.stats.has_value()) {
      std::fprintf(f, ", \"stats\": ");
      PrintStats(f, *r.stats);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool ok = std::fclose(f) == 0;
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

bool PartitionsIdentical(const Partition& a, const Partition& b) {
  if (a.d != b.d || a.num_border_nodes != b.num_border_nodes ||
      a.base_region != b.base_region ||
      a.fragments.size() != b.fragments.size()) {
    return false;
  }
  for (size_t i = 0; i < a.fragments.size(); ++i) {
    if (a.fragments[i].owned_global != b.fragments[i].owned_global ||
        a.fragments[i].owned_local != b.fragments[i].owned_local ||
        a.fragments[i].sub.local_to_global !=
            b.fragments[i].sub.local_to_global ||
        a.fragments[i].sub.graph.num_edges() !=
            b.fragments[i].sub.graph.num_edges()) {
      return false;
    }
  }
  return true;
}

bool ReportPoolVsSerialDPar(const Graph& g, BenchReporter& reporter) {
  DParConfig dc;
  dc.num_fragments = 8;
  dc.d = 2;
  WallTimer serial_timer;
  auto serial = DPar(g, dc);
  const double serial_ms = serial_timer.ElapsedMillis();
  if (!serial.ok()) return false;
  const size_t hw = std::max(2u, std::thread::hardware_concurrency());
  ThreadPool pool(hw);
  WallTimer pool_timer;
  auto pooled = DPar(g, dc, nullptr, &pool);
  const double pool_ms = pool_timer.ElapsedMillis();
  if (!pooled.ok()) return false;
  if (!PartitionsIdentical(*serial, *pooled)) {
    std::printf("FATAL: pooled DPar diverged from serial\n");
    return false;
  }
  std::printf("pool-parallel DPar (n=8, d=2, %zu threads): "
              "%.1f ms vs serial %.1f ms (%.2fx)\n",
              hw, pool_ms, serial_ms,
              pool_ms > 0 ? serial_ms / pool_ms : 0.0);
  reporter.Add("n=8/d=2/pool_wall", pool_ms,
               {{"threads", static_cast<double>(hw)},
                {"serial_wall_ms", serial_ms}});
  return true;
}

std::vector<Pattern> MakeSuite(const Graph& g, size_t count,
                               const PatternGenConfig& config, uint64_t seed,
                               int max_radius, uint64_t enum_probe_cap) {
  if (enum_probe_cap == 0) {
    std::vector<Pattern> suite;
    for (uint64_t s = seed; suite.size() < count && s < seed + 24; ++s) {
      for (Pattern& q : GeneratePatternSuite(g, count, config, s)) {
        if (max_radius > 0 && q.Radius() > max_radius) continue;
        suite.push_back(std::move(q));
        if (suite.size() >= count) break;
      }
    }
    return suite;
  }
  // Enum-screened mode: gather a wider pool, probe each pattern with the
  // Enum baseline under the embedding cap, and keep the HARDEST patterns
  // the baseline can still finish — easy patterns would let fixed
  // per-fragment costs dominate and wash out the algorithmic contrast
  // the figures measure.
  std::vector<std::pair<double, Pattern>> feasible;
  for (uint64_t s = seed; feasible.size() < count * 3 && s < seed + 24;
       ++s) {
    for (Pattern& q : GeneratePatternSuite(g, count * 2, config, s)) {
      if (max_radius > 0 && q.Radius() > max_radius) continue;
      MatchOptions probe;
      probe.max_isomorphisms = enum_probe_cap;
      WallTimer timer;
      if (!EnumMatcher::Evaluate(q, g, probe).ok()) continue;
      double t = timer.ElapsedSeconds();
      if (t > 20.0) continue;  // keep the whole-suite budget sane
      feasible.emplace_back(t, std::move(q));
      if (feasible.size() >= count * 3) break;
    }
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Pattern> suite;
  for (auto& [t, q] : feasible) {
    if (suite.size() >= count) break;
    suite.push_back(std::move(q));
  }
  return suite;
}

}  // namespace qgp::bench
