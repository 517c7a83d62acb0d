#ifndef QGP_SERVICE_ADMISSION_H_
#define QGP_SERVICE_ADMISSION_H_

/// \file
/// Admission control for the network query service: a global in-flight
/// bound that exerts backpressure (callers block until load drains) and
/// a per-client in-flight/queue-depth limit that rejects outright (one
/// greedy client cannot starve the rest — it gets structured
/// "Unavailable" errors while other clients keep flowing).
///
/// "In-flight" counts a request from admission until completion, i.e.
/// queued plus executing: the per-client limit therefore bounds both a
/// client's queue depth and its concurrency with one knob.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace qgp::service {

class AdmissionController {
 public:
  struct Options {
    /// Global in-flight bound: Enter() blocks (backpressure) while this
    /// many requests are admitted and incomplete. 0 = unbounded.
    size_t max_inflight = 64;
    /// Per-client bound: Enter() returns kRejected immediately once a
    /// client has this many requests in flight. 0 = unbounded.
    size_t max_inflight_per_client = 8;
  };

  enum class Admit {
    kAdmitted,  ///< slot held; pair with Exit()
    kRejected,  ///< per-client limit hit; tell the client to back off
    kClosed,    ///< controller shut down; drop the request
  };

  explicit AdmissionController(const Options& options) : options_(options) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits one request from `client`. Blocks while the global bound is
  /// reached (the caller is a connection reader — blocking it stalls
  /// the socket, which is exactly the backpressure we want); rejects
  /// without blocking when the client's own limit is reached.
  Admit Enter(uint64_t client);

  /// Releases a slot admitted by Enter() (request completed or dropped).
  void Exit(uint64_t client);

  /// Wakes every blocked Enter() with kClosed and fails all future
  /// admissions. Idempotent.
  void Close();

  /// Requests currently admitted and incomplete (all clients).
  size_t inflight() const;
  /// In-flight count of one client.
  size_t client_inflight(uint64_t client) const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable can_enter_;
  std::unordered_map<uint64_t, size_t> per_client_;
  size_t inflight_ = 0;
  bool closed_ = false;
};

}  // namespace qgp::service

#endif  // QGP_SERVICE_ADMISSION_H_
