#include "service/query_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "core/pattern_parser.h"

namespace qgp::service {

namespace {

/// Writes the whole buffer; MSG_NOSIGNAL turns a dead peer into EPIPE
/// instead of a process-killing SIGPIPE. Returns false on any error
/// (the session is then effectively write-dead; responses are dropped).
bool WriteAll(int fd, std::string_view data) {
  // Fault seam: an armed "service.socket_write" failpoint maps onto
  // this writer's failure convention — the response is dropped and the
  // session becomes write-dead, exactly like a vanished peer.
  if (!QGP_FAILPOINT_STATUS("service.socket_write").ok()) return false;
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

QueryService::Session::~Session() {
  if (fd >= 0) ::close(fd);
}

QueryService::QueryService(QueryEngine* engine, const ServiceOptions& options)
    : engine_(engine),
      options_(options),
      admission_(AdmissionController::Options{
          options.max_inflight, options.max_inflight_per_client}),
      dict_(engine->graph().dict()) {}

QueryService::~QueryService() { Stop(); }

Status QueryService::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (started_) return Status::Internal("service already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const Status status = Status::IoError(
        "bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const size_t workers = options_.dispatch_threads > 0
                             ? options_.dispatch_threads
                             : 1;
  dispatch_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    dispatch_threads_.emplace_back([this] { DispatchLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QueryService::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Count(&ServiceStats::connections);
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
    }
    session->reader =
        std::thread([this, session] { ReaderLoop(session); });
    ReapFinishedSessions();
  }
}

void QueryService::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->reader_done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      // Dispatch workers may still hold the shared_ptr to deliver a
      // late response; the socket closes when the last reference drops.
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryService::ReaderLoop(std::shared_ptr<Session> session) {
  std::string buffer;
  uint64_t next_seq = 0;
  char chunk[4096];
  bool overlong = false;
  while (true) {
    const ssize_t n = ::recv(session->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error (including Stop()'s shutdown())
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (overlong) {
        overlong = false;  // tail of a discarded oversized line
      } else if (!line.empty()) {
        HandleLine(session, next_seq++, line);
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (buffer.size() > options_.max_line_bytes) {
      if (overlong) {
        buffer.clear();  // keep discarding the same runaway line
      } else {
        // Hostile input guard: answer the line-in-progress with a
        // structured error now and skip its tail once the terminator
        // finally arrives.
        Count(&ServiceStats::malformed);
        Count(&ServiceStats::requests);
        Complete(session, next_seq++,
                 EncodeErrorResponse(
                     ServiceRequest::Op::kQuery,
                     Status::InvalidArgument(
                         "request line exceeds " +
                         std::to_string(options_.max_line_bytes) + " bytes"),
                     ""));
        buffer.clear();
        overlong = true;
      }
    }
  }
  session->reader_done.store(true);
}

bool QueryService::Admit(const std::shared_ptr<Session>& session,
                         uint64_t seq, const ServiceRequest& request) {
  Status refused;
  switch (admission_.Enter(session->id)) {
    case AdmissionController::Admit::kAdmitted:
      return true;
    case AdmissionController::Admit::kRejected:
      Count(&ServiceStats::rejected);
      refused = Status::Unavailable(
          "per-client in-flight limit reached; back off and retry");
      break;
    case AdmissionController::Admit::kClosed:
      refused = Status::Unavailable("service shutting down");
      break;
  }
  Complete(session, seq, EncodeErrorResponse(request.op, refused, request.tag));
  return false;
}

void QueryService::HandleLine(const std::shared_ptr<Session>& session,
                              uint64_t seq, std::string_view line) {
  Count(&ServiceStats::requests);
  Result<ServiceRequest> decoded = DecodeRequest(line);
  if (!decoded.ok()) {
    Count(&ServiceStats::malformed);
    Complete(session, seq,
             EncodeErrorResponse(ServiceRequest::Op::kQuery, decoded.status(),
                                 ""));
    return;
  }
  ServiceRequest& request = decoded.value();
  switch (request.op) {
    case ServiceRequest::Op::kStats:
      // Answered inline on the reader thread: never queued, and the
      // engine's telemetry lock is independent of its admission lock,
      // so this cannot stall behind a running query.
      Count(&ServiceStats::stats_requests);
      Complete(session, seq, EncodeStatsResponse(engine_->stats(), stats()));
      return;
    case ServiceRequest::Op::kShutdown:
      if (!options_.allow_shutdown) {
        Complete(session, seq,
                 EncodeErrorResponse(
                     request.op,
                     Status::Unimplemented(
                         "shutdown op disabled (start with allow_shutdown)"),
                     request.tag));
        return;
      }
      Complete(session, seq, EncodeShutdownResponse());
      RequestStop();
      return;
    case ServiceRequest::Op::kDelta: {
      // Routed through the dispatch queue like a query: ApplyDelta
      // blocks behind the running evaluation (engine admission lock) on
      // a dispatch worker, NOT on this reader thread — requests
      // pipelined behind the delta keep being read, and an unrelated
      // connection's multi-second delta can never wedge this one's
      // reader. The delta occupies an admission slot, so mutators feel
      // the same backpressure queries do. Borrowed engines reject
      // deltas; the error passes through from the worker.
      if (!Admit(session, seq, request)) return;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        QueuedQuery item;
        item.session = session;
        item.seq = seq;
        item.is_delta = true;
        item.delta = std::move(request.delta);
        item.own = std::move(request.own);
        item.tag = std::move(request.tag);
        queue_.push_back(std::move(item));
      }
      queue_cv_.notify_one();
      return;
    }
    case ServiceRequest::Op::kQuery:
      break;
  }

  QuerySpec spec;
  {
    std::lock_guard<std::mutex> lock(dict_mu_);
    Result<Pattern> pattern =
        PatternParser::Parse(request.pattern_text, dict_);
    if (!pattern.ok()) {
      // Unparseable pattern text is a malformed request, not an engine
      // failure: queries_failed counts evaluations the engine rejected.
      Count(&ServiceStats::malformed);
      Complete(session, seq,
               EncodeErrorResponse(request.op, pattern.status(), request.tag));
      return;
    }
    spec.pattern = std::move(pattern).value();
  }
  spec.algo = request.algo;
  spec.options = request.options;
  spec.share_cache = request.share_cache;
  spec.tag = request.tag;

  // Per-request cancellation token, parented to the drain token so one
  // shutdown-time RequestCancel() reaches every request. The deadline —
  // when the client sent timeout_ms — starts NOW, at receipt: time
  // blocked on admission and queued counts against the budget, which is
  // what lets dispatch shed a request that aged out before it ever
  // reached the engine. The engine-side QuerySpec::timeout_ms is
  // deliberately NOT set: that clock would restart at admission and
  // double-arm the deadline.
  auto token =
      request.timeout_ms > 0
          ? std::make_shared<CancelToken>(
                CancelToken::Clock::now() +
                    std::chrono::milliseconds(request.timeout_ms),
                &drain_token_)
          : std::make_shared<CancelToken>(&drain_token_);

  if (!Admit(session, seq, request)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    QueuedQuery item;
    item.session = session;
    item.seq = seq;
    item.spec = std::move(spec);
    item.cancel = std::move(token);
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void QueryService::DispatchLoop() {
  while (true) {
    QueuedQuery next;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return queue_stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      next = std::move(queue_.front());
      queue_.pop_front();
      ++active_dispatch_;
    }
    // Fault seam: tests arm "service.dispatch_dequeue" to pin a worker
    // right here (delay — stuck-worker simulation) or to fail the
    // request before it reaches the engine (error).
    const Status seam = QGP_FAILPOINT_STATUS("service.dispatch_dequeue");
    std::string line;
    if (!seam.ok()) {
      if (next.is_delta) {
        Count(&ServiceStats::deltas_failed);
        line = EncodeErrorResponse(ServiceRequest::Op::kDelta, seam, next.tag);
      } else {
        Count(&ServiceStats::queries_failed);
        line = EncodeErrorResponse(ServiceRequest::Op::kQuery, seam,
                                   next.spec.tag);
      }
    } else if (!next.is_delta && next.cancel != nullptr &&
               next.cancel->ShouldStopExact()) {
      // Queue-age shedding: the request's deadline (or the drain token)
      // fired while it waited — answer it without touching the engine,
      // so a backlog of expired requests cannot occupy the evaluation
      // pipeline. ShouldStopExact reads the clock unconditionally; the
      // strided fast path is for evaluation-hot-path polls only.
      Count(&ServiceStats::shed);
      line = EncodeErrorResponse(ServiceRequest::Op::kQuery,
                                 next.cancel->ToStatus(), next.spec.tag);
    } else if (next.is_delta) {
      Result<DeltaOutcome> outcome =
          next.own.empty() ? engine_->ApplyDelta(next.delta)
                           : engine_->ApplyDelta(next.delta, next.own);
      if (outcome.ok()) {
        Count(&ServiceStats::deltas_ok);
        {
          // Re-snapshot the dict: labels the delta interned become
          // usable in subsequent pattern text on every connection.
          std::lock_guard<std::mutex> lock(dict_mu_);
          dict_ = engine_->DictSnapshot();
        }
        line = EncodeDeltaResponse(*outcome, next.tag);
      } else {
        Count(&ServiceStats::deltas_failed);
        line = EncodeErrorResponse(ServiceRequest::Op::kDelta,
                                   outcome.status(), next.tag);
      }
    } else {
      // Thread the request token into the evaluation; the shared_ptr in
      // `next` keeps it alive until the response is posted.
      next.spec.options.cancel = next.cancel.get();
      Result<QueryOutcome> outcome = engine_->Submit(next.spec);
      if (outcome.ok()) {
        Count(&ServiceStats::queries_ok);
        line = EncodeQueryResponse(*outcome);
      } else {
        Count(&ServiceStats::queries_failed);
        line = EncodeErrorResponse(ServiceRequest::Op::kQuery,
                                   outcome.status(), next.spec.tag);
      }
    }
    // Release the slot before writing the response: by the time the
    // client can react to the response, its slot is already free, so a
    // request/response client never sees a stale in-flight count.
    admission_.Exit(next.session->id);
    Complete(next.session, next.seq, std::move(line));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --active_dispatch_;
    }
    // Wakes Stop()'s natural-drain wait (and, harmlessly, idle workers).
    queue_cv_.notify_all();
  }
}

void QueryService::Complete(const std::shared_ptr<Session>& session,
                            uint64_t seq, std::string line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(session->write_mu);
  // Insert into the reorder buffer (kept sorted by seq; completions
  // arrive nearly in order, so this is a short scan from the back).
  auto it = session->pending.end();
  while (it != session->pending.begin() && std::prev(it)->first > seq) --it;
  session->pending.emplace(it, seq, std::move(line));
  // Flush the contiguous prefix: responses leave in request order.
  while (!session->pending.empty() &&
         session->pending.front().first == session->next_write) {
    (void)WriteAll(session->fd, session->pending.front().second);
    session->pending.pop_front();
    ++session->next_write;
  }
}

void QueryService::RequestStop() {
  std::lock_guard<std::mutex> lock(state_mu_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

void QueryService::Wait() {
  std::unique_lock<std::mutex> lock(state_mu_);
  stop_cv_.wait(lock, [&] { return stop_requested_ || stopped_; });
}

void QueryService::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  // 1. Stop accepting connections.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // 2. Wake any reader blocked on admission, then stop the read side of
  // every session: readers drain to EOF and exit. Write sides stay open
  // so already-admitted queries still get their responses.
  admission_.Close();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      ::shutdown(session->fd, SHUT_RD);
    }
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->reader.joinable()) session->reader.join();
    }
  }
  // 3. Graceful drain: the already-admitted work gets drain_timeout_ms
  // to finish naturally. Past the budget, the drain token fires — the
  // in-flight evaluation unwinds cooperatively with kCancelled (still
  // answered, as a structured error) and queued requests are shed at
  // dispatch; the engine's delta admission turns bounded meanwhile so
  // a mutator cannot park forever either.
  bool drained_naturally;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    const auto budget = std::chrono::milliseconds(
        options_.drain_timeout_ms > 0 ? options_.drain_timeout_ms : 0);
    drained_naturally = queue_cv_.wait_for(lock, budget, [&] {
      return queue_.empty() && active_dispatch_ == 0;
    });
  }
  if (!drained_naturally) {
    engine_->SetDraining(true);
    drain_token_.RequestCancel();
  }
  // 4. Drain the admission queue: every admitted request is answered
  // (evaluated, cancelled or shed), then the dispatch workers exit —
  // which also means every reorder buffer flushed completely, since
  // each pending seq slot got its response.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatch_threads_) {
    if (t.joinable()) t.join();
  }
  dispatch_threads_.clear();
  // The engine outlives the service; leave it usable.
  engine_->SetDraining(false);
  // 5. Release sessions (sockets close as the last references drop).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  for (const auto& field : ServiceStats::Fields()) {
    s.*field.member = std::atomic_ref<uint64_t>(counters_.*field.member).load();
  }
  return s;
}

}  // namespace qgp::service
