#include "tools/cli_lib.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

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

// A one-shot loopback server: accepts one connection, reads one request
// line and answers it with `reply`.
class CannedServer {
 public:
  explicit CannedServer(std::string reply) : reply_(std::move(reply)) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    bound_ = fd_ >= 0 &&
             bind(fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
             listen(fd_, 1) == 0 &&
             getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    port_ = ntohs(addr.sin_port);
    if (bound_) thread_ = std::thread([this] { Serve(); });
  }
  ~CannedServer() {
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) close(fd_);
  }
  bool bound() const { return bound_; }
  std::string port() const { return std::to_string(port_); }

 private:
  void Serve() {
    const int conn = accept(fd_, nullptr, nullptr);
    if (conn < 0) return;
    char c = 0;
    while (read(conn, &c, 1) == 1 && c != '\n') {
    }
    const std::string line = reply_ + "\n";
    (void)!write(conn, line.data(), line.size());
    close(conn);
  }

  std::string reply_;
  int fd_ = -1;
  bool bound_ = false;
  uint16_t port_ = 0;
  std::thread thread_;
};

std::string DeltaReply(const std::string& counts) {
  return R"({"ok":true,"op":"delta","tag":"","graph_version":3,)" + counts +
         R"(,"partition_invalidated":false,"wall_ms":0.5})";
}

TEST(CliTest, DeltaPrintsTheServersCounts) {
  CannedServer server(DeltaReply(
      R"("vertices_added":1,"vertices_removed":0,"edges_added":2,)"
      R"("edges_removed":0,"candidate_sets_evicted":4,)"
      R"("results_invalidated":5)"));
  ASSERT_TRUE(server.bound());
  CliResult r = RunTool({"delta", server.port(), "+v:person"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("version=3 +v=1 -v=0 +e=2 -e=0"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("evicted 4 candidate sets, invalidated 5 results"),
            std::string::npos)
      << r.out;
}

// Counts that no delta can have — negative, or past any integer — are a
// malformed response, not a wrapped or undefined conversion.
TEST(CliTest, DeltaRejectsOutOfRangeCounts) {
  CannedServer server(DeltaReply(
      R"("vertices_added":-1,"vertices_removed":0,"edges_added":1e30,)"
      R"("edges_removed":0,"candidate_sets_evicted":0,)"
      R"("results_invalidated":0)"));
  ASSERT_TRUE(server.bound());
  CliResult r = RunTool({"delta", server.port(), "+v:person"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.out, "");
  EXPECT_NE(r.err.find("malformed delta response"), std::string::npos)
      << r.err;
}

}  // namespace
}  // namespace qgp::cli
