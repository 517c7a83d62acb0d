#ifndef QGP_TOOLS_CLI_LIB_H_
#define QGP_TOOLS_CLI_LIB_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace qgp::cli {

/// Entry point of the `qgp` command-line tool, factored out of main()
/// so tests can drive it in-process. Returns the process exit code and
/// writes all output to `out` / `err`.
///
/// Subcommands:
///   qgp stats <graph>
///   qgp convert <graph-in> <graph-out.bin>
///   qgp match <graph> <pattern-file>...
///             [--algo=auto|qmatch|pqmatch]
///             [--stats] [--limit=N] [--threads=N] [--n=4] [--d=2]
///
/// `match` evaluates every pattern file through one QueryEngine
/// (src/engine/query_engine.h): the graph is loaded once, candidate
/// filters are interned across the patterns, and `--stats` appends the
/// engine's cumulative cache hit ratio after the per-pattern results.
///   qgp generate <social|knowledge|synthetic> <out> [--size=N] [--seed=N]
///   qgp partition <graph> [--n=4] [--d=2]
///   qgp mine <graph> [--eta=0.5] [--support=20] [--rules=5]
///   qgp serve <graph> [--port=0] [--threads=N] [--dispatch=2]
///             [--max-inflight=64] [--max-per-client=8] [--allow-shutdown]
///             [--result-cache] [--n=4] [--d=2]
///
/// `serve` runs the TCP query service (src/service/query_service.h) over
/// one engine: newline-delimited JSON requests from many concurrent
/// clients, admission control with backpressure, responses in request
/// order per connection. Note: `serve` blocks the calling thread until a
/// client shutdown op (--allow-shutdown) arrives.
///   qgp delta <port> <op>... [--host=127.0.0.1] [--tag=]
///
/// `delta` connects to a running `serve` process and applies one batched
/// graph mutation (op "delta" on the wire). Operands accumulate into a
/// single atomic batch: `+v:LABEL` appends a vertex, `-v:ID` tombstones
/// one, `+e:SRC,DST,LABEL` / `-e:SRC,DST,LABEL` add/remove edges. The
/// server replies with the new graph version and the net effect.
///
/// Graph files may be the text format (graph_io.h) or the binary format
/// (auto-detected by magic). Pattern files use the PatternParser DSL.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace qgp::cli

#endif  // QGP_TOOLS_CLI_LIB_H_
