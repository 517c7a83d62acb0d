#ifndef QGP_SERVICE_QUERY_SERVICE_H_
#define QGP_SERVICE_QUERY_SERVICE_H_

/// \file
/// The network front end: a TCP query service multiplexing many client
/// connections onto one QueryEngine. Protocol: newline-delimited JSON
/// (service/protocol.h). Architecture (docs/ARCHITECTURE.md has the
/// diagram):
///
///   accept thread ── one reader thread per connection
///        │                 │  decode, admission control
///        │                 ▼
///        │          bounded admission queue   ← backpressure: a reader
///        │                 │                    blocks (stops reading
///        │                 ▼                    its socket) while the
///        │          dispatch workers            global in-flight bound
///        │                 │  engine->Submit    is reached
///        │                 ▼
///        └──────── per-session reorder buffer → socket (responses in
///                                               request order)
///
/// Monitoring: the "stats" op is answered inline by the reader thread —
/// it never enters the admission queue, and QueryEngine::stats() no
/// longer blocks behind evaluations, so a monitoring connection gets
/// telemetry in microseconds while multi-second queries are mid-flight.
/// (Responses on ONE connection stay in request order, so pipeline
/// monitoring on its own connection, not behind a slow query.)
///
/// Mutation: the "delta" op goes through the SAME admission queue and
/// dispatch workers as queries, with the same per-connection seq slot in
/// the reorder buffer — the reader thread never blocks on the engine's
/// admission lock, so requests pipelined behind a delta keep being read
/// and dispatched while QueryEngine::ApplyDelta waits out the running
/// evaluation on a worker. A request/response client still sees its own
/// delta applied before its next query (the engine sequences both, and
/// the response cannot arrive before the apply lands); a client that
/// PIPELINES queries behind a delta on one connection may have them
/// evaluate against the pre-delta graph — every evaluation still sees
/// entirely the pre- or post-delta graph, never a blend. On success the
/// dispatching worker re-snapshots the engine's dict so pattern text may
/// use labels the delta introduced.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "engine/query_engine.h"
#include "graph/label_dict.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace qgp::service {

struct ServiceOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port() after Start()).
  int port = 0;
  /// Threads draining the admission queue into QueryEngine::Submit.
  /// The engine admits one evaluation at a time (each fans out over the
  /// whole worker pool), so this is queue-drain concurrency, not
  /// evaluation concurrency.
  size_t dispatch_threads = 2;
  /// Global in-flight bound (queued + executing). Readers block when
  /// it is reached — backpressure to every client. 0 = unbounded.
  size_t max_inflight = 64;
  /// Per-connection in-flight/queue-depth limit; excess requests get an
  /// immediate "Unavailable" rejection. 0 = unbounded.
  size_t max_inflight_per_client = 8;
  /// Honor {"op":"shutdown"} from clients (loopback tooling / CI). Off
  /// by default: a stray client must not stop a shared server.
  bool allow_shutdown = false;
  /// Reject request lines longer than this (hostile-input guard).
  size_t max_line_bytes = 1 << 20;
  /// Graceful-drain budget of Stop(): after the readers are down, the
  /// already-admitted work gets this long to finish naturally; past it,
  /// the drain token fires — in-flight evaluations unwind with
  /// kCancelled (still answered, as structured errors) and queued
  /// requests are shed at dispatch. 0 = cancel immediately.
  int64_t drain_timeout_ms = 2000;
};

/// A running TCP query service bound to one engine. Lifecycle:
///   QueryService service(&engine, options);
///   QGP_RETURN_IF_ERROR(service.Start());
///   ... service.port() ...
///   service.Wait();   // until Stop() elsewhere or a shutdown op
///   service.Stop();   // graceful: admitted queries are answered
class QueryService {
 public:
  /// `engine` must outlive the service.
  QueryService(QueryEngine* engine, const ServiceOptions& options);
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Binds 127.0.0.1:port, starts the accept/dispatch threads.
  Status Start();

  /// The bound port (valid after a successful Start()).
  int port() const { return port_; }

  /// Blocks until Stop() is entered from another thread or a client
  /// shutdown op arrives (options.allow_shutdown). Returns immediately
  /// if either already happened.
  void Wait();

  /// Graceful stop: stops accepting, wakes blocked readers, then drains
  /// — already-admitted work may finish naturally for up to
  /// options.drain_timeout_ms, after which the drain token cancels
  /// every in-flight evaluation (answered with kCancelled) and queued
  /// requests are shed. Every admitted request gets SOME response
  /// before its socket closes; reorder buffers flush fully because the
  /// dispatch workers only exit once every seq slot is answered.
  /// Idempotent; must not be called from a reader/dispatch thread (the
  /// shutdown op signals Wait() instead for exactly that reason).
  void Stop();

  /// Service-level counters (the stats op reports the same numbers).
  ServiceStats stats() const;

 private:
  /// One client connection: socket, reader thread, and the reorder
  /// buffer that keeps responses in request order.
  struct Session {
    int fd = -1;
    uint64_t id = 0;
    std::thread reader;
    std::atomic<bool> reader_done{false};
    /// Reorder buffer state, guarded by write_mu: completions may
    /// arrive from any dispatch worker; only the contiguous prefix is
    /// written to the socket.
    std::mutex write_mu;
    uint64_t next_write = 0;
    std::deque<std::pair<uint64_t, std::string>> pending;
    ~Session();
  };

  /// One admitted unit of work: a query spec or a graph delta. Both
  /// occupy an admission slot and a seq position in the session's
  /// response order; dispatch workers tell them apart via is_delta.
  struct QueuedQuery {
    std::shared_ptr<Session> session;
    uint64_t seq = 0;
    QuerySpec spec;  // meaningful when !is_delta
    bool is_delta = false;
    NamedGraphDelta delta;  // meaningful when is_delta
    /// Shard transport: owned-focus extension riding the delta (see
    /// ServiceRequest::own). Empty for plain clients.
    std::vector<VertexId> own;
    /// Request tag for delta responses (queries carry theirs in spec).
    std::string tag;
    /// Cancellation token of this request (queries only): deadline from
    /// the request's timeout_ms measured at receipt, parent =
    /// drain_token_. Heap-allocated so the pointer threaded into
    /// MatchOptions stays stable while the item moves through the
    /// queue. Checked at dispatch dequeue for queue-age shedding.
    std::shared_ptr<CancelToken> cancel;
  };

  void AcceptLoop();
  void DispatchLoop();
  void ReaderLoop(std::shared_ptr<Session> session);
  /// Decodes and routes one request line; `seq` is its slot in the
  /// session's response order.
  void HandleLine(const std::shared_ptr<Session>& session, uint64_t seq,
                  std::string_view line);
  /// Takes an admission slot for `request` from `session`. On a
  /// rejection or a closed controller, answers slot `seq` with the
  /// structured error and returns false.
  bool Admit(const std::shared_ptr<Session>& session, uint64_t seq,
             const ServiceRequest& request);
  /// Posts `line` as the response for slot `seq` and flushes the
  /// contiguous prefix of the reorder buffer to the socket.
  static void Complete(const std::shared_ptr<Session>& session, uint64_t seq,
                       std::string line);
  void ReapFinishedSessions();
  void RequestStop();

  QueryEngine* const engine_;
  const ServiceOptions options_;
  AdmissionController admission_;

  /// Copy of the graph's dictionary: incoming pattern text is parsed
  /// against it (label ids of known labels match the graph; unknown
  /// labels interne fresh ids that no vertex carries, so they match
  /// nothing — consistent with an unlabeled-miss query). Guarded by
  /// dict_mu_: sessions parse concurrently.
  std::mutex dict_mu_;
  LabelDict dict_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::atomic<uint64_t> next_session_id_{1};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueuedQuery> queue_;
  bool queue_stopping_ = false;
  /// Requests popped but not yet answered — Stop()'s natural-drain wait
  /// is over (queue_ empty && active_dispatch_ == 0). Guarded by
  /// queue_mu_; workers notify queue_cv_ when it drops to zero.
  size_t active_dispatch_ = 0;
  std::vector<std::thread> dispatch_threads_;

  /// Fires when Stop()'s natural-drain budget expires: parent of every
  /// request token, so one RequestCancel() reaches each queued and
  /// in-flight query. Never reset — a service is not restartable.
  CancelToken drain_token_;

  std::mutex state_mu_;
  std::condition_variable stop_cv_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool stopped_ = false;

  /// Bumps one counter of `counters_` atomically.
  void Count(uint64_t ServiceStats::*counter) {
    ++std::atomic_ref<uint64_t>(counters_.*counter);
  }
  /// Every access goes through std::atomic_ref (Count, stats()); mutable
  /// because stats() const reads it that way too.
  mutable ServiceStats counters_;
};

}  // namespace qgp::service

#endif  // QGP_SERVICE_QUERY_SERVICE_H_
