#include "tools/cli_lib.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace qgp::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunTool(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/qgp_cli_" + name;
}

void WriteTinyGraph(const std::string& path) {
  std::ofstream f(path);
  f << "v 0 person\nv 1 person\nv 2 product\n"
       "e 0 1 follow\ne 1 2 recom\n";
}

TEST(CliTest, NoArgsShowsUsage) {
  CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommand) {
  CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, StatsOnTextGraph) {
  std::string path = TempPath("stats.txt");
  WriteTinyGraph(path);
  CliResult r = RunTool({"stats", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("|V|=3"), std::string::npos);
  EXPECT_NE(r.out.find("|E|=2"), std::string::npos);
}

TEST(CliTest, StatsMissingFile) {
  CliResult r = RunTool({"stats", "/no/such/file"});
  EXPECT_EQ(r.code, 1);
  EXPECT_FALSE(r.err.empty());
}

TEST(CliTest, ConvertThenStatsBinary) {
  std::string text = TempPath("conv.txt");
  std::string bin = TempPath("conv.bin");
  WriteTinyGraph(text);
  CliResult conv = RunTool({"convert", text, bin});
  ASSERT_EQ(conv.code, 0) << conv.err;
  CliResult stats = RunTool({"stats", bin});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("|V|=3"), std::string::npos);
}

TEST(CliTest, MatchQuantifiedPattern) {
  std::string graph = TempPath("match.txt");
  WriteTinyGraph(graph);
  std::string pattern = TempPath("pattern.qgp");
  {
    std::ofstream f(pattern);
    f << "node xo person\nnode z person\nnode r product\n"
         "edge xo z follow =100%\nedge z r recom\nfocus xo\n";
  }
  for (const char* algo : {"qmatch", "pqmatch"}) {
    CliResult r = RunTool({"match", graph, pattern,
                       std::string("--algo=") + algo, "--stats"});
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    EXPECT_NE(r.out.find("matches: 1"), std::string::npos) << algo;
    EXPECT_NE(r.out.find("stats:"), std::string::npos) << algo;
  }
  CliResult bad = RunTool({"match", graph, pattern, "--algo=bogus"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown --algo 'bogus'"), std::string::npos)
      << bad.err;
  // The QMatchn baseline is a MatchOptions flag, not an algo, and the
  // enumeration baselines are not served.
  for (const std::string algo : {"qmatchn", "enum", "penum"}) {
    CliResult r = RunTool({"match", graph, pattern, "--algo=" + algo});
    EXPECT_EQ(r.code, 2) << algo;
    EXPECT_NE(r.err.find("unknown --algo '" + algo + "'"), std::string::npos)
        << r.err;
  }
}

TEST(CliTest, MatchAlgoAutoSurfacesPlannerDecision) {
  std::string graph = TempPath("auto.txt");
  WriteTinyGraph(graph);
  std::string pattern = TempPath("auto_pattern.qgp");
  {
    std::ofstream f(pattern);
    f << "node xo person\nnode z person\nnode r product\n"
         "edge xo z follow =100%\nedge z r recom\nfocus xo\n";
  }
  // One pattern file passed twice = a two-entry batch on one engine.
  CliResult r =
      RunTool({"match", graph, pattern, pattern, "--algo=auto", "--stats"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("matches: 1"), std::string::npos);
  // The engine's choice is surfaced per query: the resolved matcher,
  // never "auto".
  EXPECT_NE(r.out.find(" [algo="), std::string::npos);
  EXPECT_EQ(r.out.find("[algo=auto"), std::string::npos);
}

TEST(CliTest, MatchBatchSharesOneEngine) {
  std::string graph = TempPath("batch.txt");
  WriteTinyGraph(graph);
  std::string pattern_a = TempPath("batch_a.qgp");
  {
    std::ofstream f(pattern_a);
    f << "node xo person\nnode z person\nnode r product\n"
         "edge xo z follow =100%\nedge z r recom\nfocus xo\n";
  }
  std::string pattern_b = TempPath("batch_b.qgp");
  {
    std::ofstream f(pattern_b);
    f << "node xo person\nnode z person\n"
         "edge xo z follow\nfocus xo\n";
  }
  // Two pattern files = one engine batch: per-pattern results are
  // prefixed with the file tag, and --stats appends the engine's
  // cumulative cache line.
  CliResult r = RunTool(
      {"match", graph, pattern_a, pattern_b, "--stats", "--threads=2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find(pattern_a + ": matches: 1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find(pattern_b + ": matches:"), std::string::npos);
  EXPECT_NE(r.out.find("engine: queries=2"), std::string::npos);
  EXPECT_NE(r.out.find("hit_ratio="), std::string::npos);
}

TEST(CliTest, MatchRejectsBadPattern) {
  std::string graph = TempPath("badpat.txt");
  WriteTinyGraph(graph);
  std::string pattern = TempPath("bad.qgp");
  {
    std::ofstream f(pattern);
    f << "node xo person\nedge xo nowhere follow\nfocus xo\n";
  }
  CliResult r = RunTool({"match", graph, pattern});
  EXPECT_EQ(r.code, 1);
}

TEST(CliTest, GenerateAndPartition) {
  std::string path = TempPath("social.bin");
  CliResult gen =
      RunTool({"generate", "social", path, "--size=400", "--binary"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("generated social graph"), std::string::npos);
  CliResult part = RunTool({"partition", path, "--n=3", "--d=1"});
  EXPECT_EQ(part.code, 0) << part.err;
  EXPECT_NE(part.out.find("fragment 2"), std::string::npos);
  EXPECT_NE(part.out.find("skew"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownFamily) {
  CliResult r = RunTool({"generate", "quantum", TempPath("x.txt")});
  EXPECT_EQ(r.code, 2);
}

TEST(CliTest, MineOnSocialGraph) {
  std::string path = TempPath("mine.bin");
  ASSERT_EQ(
      RunTool({"generate", "social", path, "--size=800", "--binary"}).code, 0);
  CliResult r = RunTool({"mine", path, "--eta=0.4", "--support=5", "--rules=2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mined"), std::string::npos);
}

}  // namespace
}  // namespace qgp::cli
