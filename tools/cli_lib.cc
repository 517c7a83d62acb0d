#include "tools/cli_lib.h"

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/pattern_parser.h"
#include "engine/query_engine.h"
#include "gen/knowledge_gen.h"
#include "gen/social_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "parallel/dpar.h"
#include "parallel/fragment_io.h"
#include "qgar/miner.h"
#include "service/client.h"
#include "service/query_service.h"
#include "shard/shard.h"

namespace qgp::cli {

namespace {

// Parsed "--key=value" flags plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  int64_t FlagInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    int64_t v = 0;
    return ParseInt64(it->second, &v) ? v : fallback;
  }
  double FlagDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    double v = 0;
    return ParseDouble(it->second, &v) ? v : fallback;
  }
};

Args ParseArgs(const std::vector<std::string>& raw) {
  Args args;
  for (const std::string& a : raw) {
    if (StartsWith(a, "--")) {
      size_t eq = a.find('=');
      if (eq == std::string::npos) {
        args.flags[a.substr(2)] = "true";
      } else {
        args.flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

// Loads a graph file, auto-detecting binary vs text by the magic bytes.
Result<Graph> LoadGraph(const std::string& path) {
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IoError("cannot open '" + path + "'");
    char magic[5] = {0};
    probe.read(magic, 5);
    if (probe.gcount() == 5 && std::string(magic, 5) == "QGPB1") {
      return GraphIo::ReadBinaryFile(path);
    }
  }
  return GraphIo::ReadFile(path);
}

int Usage(std::ostream& err) {
  err << "usage: qgp <command> [args]\n"
         "  stats <graph>\n"
         "  convert <graph-in> <graph-out.bin>\n"
         "  match <graph> <pattern-file>... "
         "[--algo=auto|qmatch|pqmatch]\n"
         "        [--stats] [--limit=N] [--threads=N] [--n=4] [--d=2]\n"
         "  generate <social|knowledge|synthetic> <out> [--size=N] "
         "[--seed=N] [--binary]\n"
         "  partition <graph> [--n=4] [--d=2]\n"
         "  mine <graph> [--eta=0.5] [--support=20] [--rules=5]\n"
         "  serve <graph> [--port=0] [--threads=N] [--dispatch=2]\n"
         "        [--max-inflight=64] [--max-per-client=8] "
         "[--allow-shutdown]\n"
         "        [--result-cache] [--n=4] [--d=2]\n"
         "  shard-export <graph> <out-prefix> [--n=4] [--d=2] "
         "[--balance=1.6]\n"
         "        writes <out-prefix>.<i>.graph/.meta fragment bundles\n"
         "  shard-serve <bundle-prefix> [--port=0] [--threads=N] "
         "[--dispatch=2]\n"
         "        [--max-inflight=64] [--max-per-client=8] "
         "[--allow-shutdown]\n"
         "        [--result-cache] [--n=4]\n"
         "        serves one exported fragment as a shard (owned foci "
         "only)\n"
         "  delta <port> <op>... [--host=127.0.0.1] [--tag=]\n"
         "        ops: +v:LABEL  -v:ID  +e:SRC,DST,LABEL  -e:SRC,DST,LABEL\n";
  return 2;
}

int CmdStats(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return Usage(err);
  auto g = LoadGraph(args.positional[1]);
  if (!g.ok()) {
    err << g.status().ToString() << "\n";
    return 1;
  }
  out << FormatGraphStats(*g, ComputeGraphStats(*g)) << "\n";
  return 0;
}

int CmdConvert(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 3) return Usage(err);
  auto g = LoadGraph(args.positional[1]);
  if (!g.ok()) {
    err << g.status().ToString() << "\n";
    return 1;
  }
  Status s = GraphIo::WriteBinaryFile(*g, args.positional[2]);
  if (!s.ok()) {
    err << s.ToString() << "\n";
    return 1;
  }
  out << "wrote " << args.positional[2] << " (|V|=" << g->num_vertices()
      << " |E|=" << g->num_edges() << ")\n";
  return 0;
}

// `match` evaluates one or more pattern files through a QueryEngine:
// the graph is loaded once, and every pattern of the invocation shares
// the engine's candidate cache and worker pool (a multi-pattern
// invocation is a batch in the server sense). --algo selects the
// matcher, --threads the pool width, --n/--d the partition the
// pqmatch algorithm evaluates over.
int CmdMatch(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 3) return Usage(err);
  auto graph = LoadGraph(args.positional[1]);
  if (!graph.ok()) {
    err << graph.status().ToString() << "\n";
    return 1;
  }
  Graph g = std::move(graph).value();
  const std::string algo_name = args.Flag("algo", "qmatch");
  std::optional<EngineAlgo> algo = ParseEngineAlgo(algo_name);
  if (!algo.has_value()) {
    err << "unknown --algo '" << algo_name << "'\n";
    return 2;
  }
  std::vector<QuerySpec> specs;
  for (size_t p = 2; p < args.positional.size(); ++p) {
    const std::string& path = args.positional[p];
    std::ifstream pf(path);
    if (!pf) {
      err << "cannot open pattern file '" << path << "'\n";
      return 1;
    }
    std::stringstream text;
    text << pf.rdbuf();
    auto pattern = PatternParser::Parse(text.str(), g.mutable_dict());
    if (!pattern.ok()) {
      err << pattern.status().ToString() << "\n";
      return 1;
    }
    QuerySpec spec;
    spec.pattern = std::move(pattern).value();
    spec.algo = *algo;
    spec.tag = path;
    specs.push_back(std::move(spec));
  }

  const int64_t threads = args.FlagInt("threads", 0);
  const int64_t fragments = args.FlagInt("n", 4);
  const int64_t depth = args.FlagInt("d", 2);
  if (threads < 0 || fragments < 1 || depth < 0) {
    err << "--threads/--n/--d must be non-negative (--n at least 1)\n";
    return 2;
  }
  EngineOptions engine_options;
  engine_options.num_threads = static_cast<size_t>(threads);
  engine_options.partition_fragments = static_cast<size_t>(fragments);
  engine_options.partition_d = static_cast<int>(depth);
  QueryEngine engine(std::move(g), engine_options);

  const bool multi = specs.size() > 1;
  int64_t limit = args.FlagInt("limit", 20);
  for (const QuerySpec& spec : specs) {
    auto outcome = engine.Submit(spec);
    if (!outcome.ok()) {
      err << outcome.status().ToString() << "\n";
      return 1;
    }
    if (multi) out << spec.tag << ": ";
    out << "matches: " << outcome->answers.size() << " (in "
        << outcome->wall_ms / 1000.0 << "s)";
    if (*algo == EngineAlgo::kAuto) {
      // Surface the engine's choice: which matcher ran.
      out << " [algo=" << EngineAlgoName(outcome->algo) << "]";
    }
    out << "\n";
    for (size_t i = 0; i < outcome->answers.size() &&
                       i < static_cast<size_t>(limit < 0 ? 0 : limit);
         ++i) {
      out << "  " << outcome->answers[i] << "\n";
    }
    if (args.flags.count("stats") != 0) {
      out << "stats: " << outcome->stats.ToString() << "\n";
    }
  }
  if (args.flags.count("stats") != 0) {
    const EngineStats es = engine.stats();
    out << "engine: queries=" << es.queries
        << " cache_hits=" << es.cache_hits
        << " cache_misses=" << es.cache_misses << " hit_ratio="
        << es.HitRatio() << " wall_ms=" << es.wall_ms << "\n";
  }
  return 0;
}

int CmdGenerate(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 3) return Usage(err);
  const std::string& family = args.positional[1];
  size_t size = static_cast<size_t>(args.FlagInt("size", 10000));
  uint64_t seed = static_cast<uint64_t>(args.FlagInt("seed", 42));
  Result<Graph> g = Status::Ok();
  if (family == "social") {
    SocialConfig c;
    c.num_users = size;
    c.seed = seed;
    g = GenerateSocialGraph(c);
  } else if (family == "knowledge") {
    KnowledgeConfig c;
    c.num_scientists = size;
    c.seed = seed;
    g = GenerateKnowledgeGraph(c);
  } else if (family == "synthetic") {
    SyntheticConfig c;
    c.num_vertices = size;
    c.num_edges = size * 2;
    c.seed = seed;
    g = GenerateSynthetic(c);
  } else {
    err << "unknown family '" << family << "'\n";
    return 2;
  }
  if (!g.ok()) {
    err << g.status().ToString() << "\n";
    return 1;
  }
  Status s = args.flags.count("binary") != 0
                 ? GraphIo::WriteBinaryFile(*g, args.positional[2])
                 : GraphIo::WriteFile(*g, args.positional[2]);
  if (!s.ok()) {
    err << s.ToString() << "\n";
    return 1;
  }
  out << "generated " << family << " graph: |V|=" << g->num_vertices()
      << " |E|=" << g->num_edges() << " -> " << args.positional[2] << "\n";
  return 0;
}

int CmdPartition(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return Usage(err);
  auto g = LoadGraph(args.positional[1]);
  if (!g.ok()) {
    err << g.status().ToString() << "\n";
    return 1;
  }
  DParConfig c;
  c.num_fragments = static_cast<size_t>(args.FlagInt("n", 4));
  c.d = static_cast<int>(args.FlagInt("d", 2));
  DParTimings timings;
  auto part = DPar(*g, c, &timings);
  if (!part.ok()) {
    err << part.status().ToString() << "\n";
    return 1;
  }
  out << "d-hop preserving partition: n=" << c.num_fragments
      << " d=" << c.d << "\n";
  out << "  border nodes : " << part->num_border_nodes << "\n";
  out << "  skew         : " << part->Skew() << "\n";
  out << "  replication  : " << part->ReplicationFactor(*g) << "x\n";
  out << "  parallel time: " << timings.ParallelSeconds() << "s (seq "
      << timings.SequentialSeconds() << "s)\n";
  for (size_t i = 0; i < part->fragments.size(); ++i) {
    const Fragment& f = part->fragments[i];
    out << "  fragment " << i << ": |V|=" << f.sub.graph.num_vertices()
        << " |E|=" << f.sub.graph.num_edges()
        << " owned=" << f.owned_global.size() << "\n";
  }
  return 0;
}

int CmdMine(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return Usage(err);
  auto graph = LoadGraph(args.positional[1]);
  if (!graph.ok()) {
    err << graph.status().ToString() << "\n";
    return 1;
  }
  Graph g = std::move(graph).value();
  MinerConfig c;
  c.min_confidence = args.FlagDouble("eta", 0.5);
  c.min_support = static_cast<size_t>(args.FlagInt("support", 20));
  c.max_rules = static_cast<size_t>(args.FlagInt("rules", 5));
  auto rules = MineQgars(g, c);
  if (!rules.ok()) {
    err << rules.status().ToString() << "\n";
    return 1;
  }
  out << "mined " << rules->size() << " rules\n";
  for (const MinedRule& r : *rules) {
    out << "=== " << r.rule.name << " support=" << r.support
        << " confidence=" << r.confidence << "\nIF\n"
        << PatternParser::Serialize(r.rule.antecedent, g.dict()) << "THEN\n"
        << PatternParser::Serialize(r.rule.consequent, g.dict()) << "\n";
  }
  return 0;
}

// Service-side flags shared by `serve` and `shard-serve`.
struct ServeFlags {
  int64_t port = 0;
  int64_t dispatch = 2;
  int64_t max_inflight = 64;
  int64_t max_per_client = 8;
  int64_t drain_timeout = 2000;
  bool allow_shutdown = false;
};

int ParseServeFlags(const Args& args, ServeFlags* flags, std::ostream& err) {
  flags->port = args.FlagInt("port", 0);
  flags->dispatch = args.FlagInt("dispatch", 2);
  flags->max_inflight = args.FlagInt("max-inflight", 64);
  flags->max_per_client = args.FlagInt("max-per-client", 8);
  flags->drain_timeout = args.FlagInt("drain-timeout", 2000);
  flags->allow_shutdown = args.flags.count("allow-shutdown") != 0;
  if (flags->port < 0 || flags->port > 65535) {
    err << "--port must be in [0, 65535]\n";
    return 2;
  }
  if (flags->drain_timeout < 0) {
    err << "--drain-timeout must be non-negative\n";
    return 2;
  }
  if (flags->dispatch < 1 || flags->max_inflight < 0 ||
      flags->max_per_client < 0) {
    err << "--max-inflight/--max-per-client must be non-negative, "
           "--dispatch at least 1\n";
    return 2;
  }
  return 0;
}

// Blocks SIGINT/SIGTERM so they trigger the same graceful drain as the
// shutdown op. The mask must be in place BEFORE any thread exists — a
// process-directed signal is delivered to an arbitrary thread that does
// not block it, and the engine's worker pool spawns right after this.
// Threads inherit the mask; a dedicated sigwait thread in ServeLoop
// consumes the signals (a plain handler could not safely wake Wait() —
// condition variables are not async-signal-safe).
void MaskDrainSignals(sigset_t* drain_sigs) {
  sigemptyset(drain_sigs);
  sigaddset(drain_sigs, SIGINT);
  sigaddset(drain_sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, drain_sigs, nullptr);
}

// Runs `engine` behind a QueryService until a client shutdown op or a
// drain signal. Shared by `serve` and `shard-serve`; `drain_sigs` must
// already be blocked via MaskDrainSignals.
int ServeLoop(QueryEngine& engine, const ServeFlags& flags,
              sigset_t* drain_sigs, std::ostream& out, std::ostream& err) {
  service::ServiceOptions service_options;
  service_options.port = static_cast<int>(flags.port);
  service_options.dispatch_threads = static_cast<size_t>(flags.dispatch);
  service_options.max_inflight = static_cast<size_t>(flags.max_inflight);
  service_options.max_inflight_per_client =
      static_cast<size_t>(flags.max_per_client);
  service_options.allow_shutdown = flags.allow_shutdown;
  service_options.drain_timeout_ms = flags.drain_timeout;

  // Fault-injection failpoints arm only at process entry points like
  // this one (QGP_FAILPOINTS env); library code never arms implicitly.
  failpoint::ArmFromEnv();

  service::QueryService service(&engine, service_options);
  Status started = service.Start();
  if (!started.ok()) {
    pthread_sigmask(SIG_UNBLOCK, drain_sigs, nullptr);
    err << started.ToString() << "\n";
    return 1;
  }
  out << "listening on 127.0.0.1:" << service.port() << std::endl;

  std::atomic<int> caught_signal{0};
  std::thread signal_thread([&service, &caught_signal, drain_sigs] {
    int sig = 0;
    if (sigwait(drain_sigs, &sig) != 0) return;
    // -1 is the sentinel the main thread uses to release this thread
    // when Wait() returned for another reason (client shutdown op).
    if (caught_signal.exchange(sig) != 0) return;
    service.Stop();
  });

  service.Wait();
  if (caught_signal.load() != 0) {
    out << "caught signal " << caught_signal.load() << ", draining"
        << std::endl;
  } else {
    // Woken by a shutdown op: release the sigwait thread with a
    // self-directed SIGTERM it will recognize as already-handled.
    caught_signal.store(-1);
    pthread_kill(signal_thread.native_handle(), SIGTERM);
  }
  signal_thread.join();
  service.Stop();
  // Absorb anything still pending (e.g. a second Ctrl-C during the
  // drain) so restoring the mask cannot kill the process before the
  // final summary below.
  timespec no_wait{};
  while (sigtimedwait(drain_sigs, nullptr, &no_wait) > 0) {
  }
  pthread_sigmask(SIG_UNBLOCK, drain_sigs, nullptr);

  const service::ServiceStats ss = service.stats();
  const EngineStats es = engine.stats();
  out << "served " << ss.requests << " requests on " << ss.connections
      << " connections: " << ss.queries_ok << " ok, " << ss.queries_failed
      << " failed, " << ss.rejected << " rejected, " << ss.malformed
      << " malformed, " << ss.shed << " shed\n";
  out << "engine: queries=" << es.queries << " cache_hits=" << es.cache_hits
      << " cache_misses=" << es.cache_misses << " hit_ratio=" << es.HitRatio()
      << " wall_ms=" << es.wall_ms << " timeouts=" << es.timeouts
      << " cancellations=" << es.cancellations << "\n";
  return 0;
}

// `serve` exposes one QueryEngine over TCP (newline-delimited JSON;
// src/service/protocol.h documents the wire format). The bound port is
// printed as "listening on 127.0.0.1:<port>" — with --port=0 a script
// reads the ephemeral port from that line. The process runs until a
// client sends {"op":"shutdown"} (only honored with --allow-shutdown)
// or it is killed.
int CmdServe(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return Usage(err);
  auto graph = LoadGraph(args.positional[1]);
  if (!graph.ok()) {
    err << graph.status().ToString() << "\n";
    return 1;
  }
  ServeFlags flags;
  if (int rc = ParseServeFlags(args, &flags, err); rc != 0) return rc;
  const int64_t threads = args.FlagInt("threads", 0);
  const int64_t fragments = args.FlagInt("n", 4);
  const int64_t depth = args.FlagInt("d", 2);
  if (threads < 0 || fragments < 1 || depth < 0) {
    err << "--threads/--d must be non-negative, --n at least 1\n";
    return 2;
  }

  sigset_t drain_sigs;
  MaskDrainSignals(&drain_sigs);

  EngineOptions engine_options;
  engine_options.num_threads = static_cast<size_t>(threads);
  engine_options.partition_fragments = static_cast<size_t>(fragments);
  engine_options.partition_d = static_cast<int>(depth);
  engine_options.enable_result_cache = args.flags.count("result-cache") != 0;
  QueryEngine engine(std::move(graph).value(), engine_options);
  return ServeLoop(engine, flags, &drain_sigs, out, err);
}

// `shard-export` partitions a graph with DPar and writes every fragment
// as a bundle (`<prefix>.<i>.graph` + `<prefix>.<i>.meta`) that
// `shard-serve` loads. DPar is deterministic, so a coordinator running
// the same partition config reconstructs the identical fragment layout
// without reading the bundles back.
int CmdShardExport(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 3) return Usage(err);
  auto g = LoadGraph(args.positional[1]);
  if (!g.ok()) {
    err << g.status().ToString() << "\n";
    return 1;
  }
  const int64_t fragments = args.FlagInt("n", 4);
  const int64_t depth = args.FlagInt("d", 2);
  const double balance = args.FlagDouble("balance", 1.6);
  if (fragments < 1 || depth < 0) {
    err << "--n must be at least 1, --d non-negative\n";
    return 2;
  }
  DParConfig config;
  config.num_fragments = static_cast<size_t>(fragments);
  config.d = static_cast<int>(depth);
  config.balance_factor = balance;
  auto part = DPar(*g, config);
  if (!part.ok()) {
    err << part.status().ToString() << "\n";
    return 1;
  }
  const std::string& prefix = args.positional[2];
  for (size_t i = 0; i < part->fragments.size(); ++i) {
    const Fragment& f = part->fragments[i];
    const std::string bundle = prefix + "." + std::to_string(i);
    Status written = WriteFragmentBundle(f, part->d, i,
                                         part->fragments.size(), bundle);
    if (!written.ok()) {
      err << written.ToString() << "\n";
      return 1;
    }
    out << "wrote " << bundle << ".graph/.meta: |V|="
        << f.sub.graph.num_vertices() << " |E|=" << f.sub.graph.num_edges()
        << " owned=" << f.owned_global.size() << "\n";
  }
  return 0;
}

// `shard-serve` loads one exported fragment bundle and serves it as a
// shard: a QueryEngine whose focus subset is the fragment's owned
// vertices, behind the same TCP protocol as `serve`. A ShardedEngine
// coordinator connects via ShardedOptions::remote_ports.
int CmdShardServe(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return Usage(err);
  auto bundle = ReadFragmentBundle(args.positional[1]);
  if (!bundle.ok()) {
    err << bundle.status().ToString() << "\n";
    return 1;
  }
  ServeFlags flags;
  if (int rc = ParseServeFlags(args, &flags, err); rc != 0) return rc;
  const int64_t threads = args.FlagInt("threads", 0);
  const int64_t fragments = args.FlagInt("n", 4);
  if (threads < 0 || fragments < 1) {
    err << "--threads must be non-negative, --n at least 1\n";
    return 2;
  }

  sigset_t drain_sigs;
  MaskDrainSignals(&drain_sigs);

  EngineOptions engine_options;
  engine_options.num_threads = static_cast<size_t>(threads);
  engine_options.partition_fragments = static_cast<size_t>(fragments);
  engine_options.enable_result_cache = args.flags.count("result-cache") != 0;
  FragmentBundle b = std::move(bundle).value();
  out << "shard fragment " << b.index << "/" << b.num_fragments
      << " (d=" << b.d << "): |V|=" << b.graph.num_vertices()
      << " |E|=" << b.graph.num_edges() << " owned=" << b.owned_local.size()
      << "\n";
  std::unique_ptr<QueryEngine> engine = shard::MakeShardEngine(
      std::move(b.graph), std::move(b.owned_local), b.d, engine_options);
  return ServeLoop(*engine, flags, &drain_sigs, out, err);
}

// One "+e:SRC,DST,LABEL" / "-e:..." operand -> a wire edge. LABEL may
// itself contain commas only if quoting were added; the synthetic and
// paper label alphabets never need it.
bool ParseEdgeOperand(const std::string& body,
                      NamedGraphDelta::NamedEdge* edge) {
  const size_t c1 = body.find(',');
  if (c1 == std::string::npos) return false;
  const size_t c2 = body.find(',', c1 + 1);
  if (c2 == std::string::npos || c2 + 1 >= body.size()) return false;
  int64_t src = 0, dst = 0;
  if (!ParseInt64(body.substr(0, c1), &src) || src < 0) return false;
  if (!ParseInt64(body.substr(c1 + 1, c2 - c1 - 1), &dst) || dst < 0) {
    return false;
  }
  edge->src = static_cast<VertexId>(src);
  edge->dst = static_cast<VertexId>(dst);
  edge->label = body.substr(c2 + 1);
  return true;
}

// `delta` is a *client* command: it connects to a running `serve`
// process and submits one batched mutation. Operands accumulate into a
// single batch — the server applies it atomically and replies with the
// new graph version and the net effect.
int CmdDelta(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 3) return Usage(err);
  int64_t port = 0;
  if (!ParseInt64(args.positional[1], &port) || port <= 0 || port > 65535) {
    err << "delta: '" << args.positional[1] << "' is not a port\n";
    return 2;
  }
  service::ServiceRequest request;
  request.op = service::ServiceRequest::Op::kDelta;
  request.tag = args.Flag("tag", "");
  for (size_t i = 2; i < args.positional.size(); ++i) {
    const std::string& op = args.positional[i];
    const size_t colon = op.find(':');
    const std::string kind = op.substr(0, colon);
    const std::string body =
        colon == std::string::npos ? "" : op.substr(colon + 1);
    bool ok = !body.empty();
    if (ok && kind == "+v") {
      request.delta.add_vertices.push_back(body);
    } else if (ok && kind == "-v") {
      int64_t id = 0;
      ok = ParseInt64(body, &id) && id >= 0;
      if (ok) request.delta.remove_vertices.push_back(
          static_cast<VertexId>(id));
    } else if (ok && (kind == "+e" || kind == "-e")) {
      NamedGraphDelta::NamedEdge edge;
      ok = ParseEdgeOperand(body, &edge);
      if (ok) {
        (kind == "+e" ? request.delta.add_edges : request.delta.remove_edges)
            .push_back(std::move(edge));
      }
    } else {
      ok = false;
    }
    if (!ok) {
      err << "delta: bad operand '" << op
          << "' (want +v:LABEL, -v:ID, +e:SRC,DST,LABEL or "
             "-e:SRC,DST,LABEL)\n";
      return 2;
    }
  }

  auto client = service::ServiceClient::Connect(
      static_cast<int>(port), args.Flag("host", "127.0.0.1"));
  if (!client.ok()) {
    err << client.status().ToString() << "\n";
    return 1;
  }
  auto response = client->Call(request);
  if (!response.ok()) {
    err << response.status().ToString() << "\n";
    return 1;
  }
  if (!response->ok) {
    err << "delta rejected: " << response->error_code << ": "
        << response->error_message << "\n";
    return 1;
  }
  std::ostringstream line;
  line << "delta applied: version=" << response->graph_version;
  constexpr std::pair<const char*, const char*> kCounts[] = {
      {"vertices_added", " +v="},
      {"vertices_removed", " -v="},
      {"edges_added", " +e="},
      {"edges_removed", " -e="},
      {"candidate_sets_evicted", " (evicted "},
      {"results_invalidated", " candidate sets, invalidated "}};
  for (const auto& [field, label] : kCounts) {
    Result<uint64_t> count = service::ReadCount(response->body, field);
    if (!count.ok()) {
      err << "malformed delta response: " << count.status().ToString()
          << "\n";
      return 1;
    }
    line << label << *count;
  }
  out << line.str() << " results)\n";
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) return Usage(err);
  Args parsed = ParseArgs(args);
  if (parsed.positional.empty()) return Usage(err);
  const std::string& cmd = parsed.positional[0];
  if (cmd == "stats") return CmdStats(parsed, out, err);
  if (cmd == "convert") return CmdConvert(parsed, out, err);
  if (cmd == "match") return CmdMatch(parsed, out, err);
  if (cmd == "generate") return CmdGenerate(parsed, out, err);
  if (cmd == "partition") return CmdPartition(parsed, out, err);
  if (cmd == "mine") return CmdMine(parsed, out, err);
  if (cmd == "serve") return CmdServe(parsed, out, err);
  if (cmd == "shard-export") return CmdShardExport(parsed, out, err);
  if (cmd == "shard-serve") return CmdShardServe(parsed, out, err);
  if (cmd == "delta") return CmdDelta(parsed, out, err);
  err << "unknown command '" << cmd << "'\n";
  return Usage(err);
}

}  // namespace qgp::cli
