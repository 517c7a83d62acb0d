#ifndef QGP_COMMON_FAILPOINT_H_
#define QGP_COMMON_FAILPOINT_H_

/// \file
/// Named failpoints: test-armable fault hooks compiled into a handful
/// of hot seams (service dispatch dequeue, engine submit, delta apply,
/// socket write, shard scatter/gather, QMatch verification, PQMatch
/// fragments) so tests can deterministically force slow-query,
/// stuck-worker and mid-response-disconnect scenarios without races or
/// sleeps.
///
/// Current seam catalog:
///  * service.dispatch_dequeue — dispatch worker after dequeuing a unit
///  * service.socket_write     — per write(2) attempt in the server
///  * engine.submit            — QueryEngine::Submit admission
///  * engine.apply_delta       — QueryEngine delta apply, pre-mutation
///  * shard.scatter            — ShardedEngine per-shard fan-out, before
///                               the shard evaluates
///  * shard.gather             — ShardedEngine per-shard merge, before a
///                               slice's answers join the union
///  * pqmatch.fragment         — PQMatch per-fragment worker, before a
///                               fragment that owns foci evaluates
///  * qmatch.verify            — QMatch, after Π(Q)'s candidate space
///                               is built, before its foci verify
///
/// Cost when unarmed: QGP_FAILPOINT expands to one relaxed atomic load
/// of a global armed counter — the registry mutex and the name lookup
/// are touched only while at least one failpoint is armed anywhere in
/// the process. Production builds keep the hooks compiled in; arming
/// is what tests (programmatic) and operators (QGP_FAILPOINTS env) do.
///
/// Actions:
///  * delay N ms   — sleep, then continue (slow-path simulation);
///  * error CODE   — return a Status of that code from the seam;
///  * trip once    — the action fires on the first hit only, then the
///                   failpoint disarms itself (one bad request, then a
///                   healthy service).
///
/// Env syntax (parsed by ArmFromEnv, ';'-separated):
///   QGP_FAILPOINTS="engine.submit=error:Unavailable;service.dispatch_dequeue=delay:50"
/// with an optional "once:" prefix on the action:
///   QGP_FAILPOINTS="engine.apply_delta=once:error:IoError"

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace qgp::failpoint {

/// What an armed failpoint does when hit.
struct Action {
  enum class Kind {
    kDelayMs,  ///< sleep delay_ms, then proceed (Hit returns OK)
    kError,    ///< Hit returns Status(code, message)
  };
  Kind kind = Kind::kError;
  /// Sleep length for kDelayMs.
  int64_t delay_ms = 0;
  /// Status for kError.
  StatusCode code = StatusCode::kInternal;
  std::string message;
  /// When true the action fires once, then the failpoint disarms.
  bool once = false;
};

/// Arms (or re-arms) failpoint `name`.
void Arm(std::string_view name, Action action);

/// Disarms `name`; no-op when it was not armed.
void Disarm(std::string_view name);

/// Disarms everything (test teardown).
void DisarmAll();

/// Parses QGP_FAILPOINTS and arms accordingly. Returns the number of
/// failpoints armed; malformed entries are skipped. Call sites: service
/// start and CLI entry — library code never arms implicitly.
size_t ArmFromEnv();

/// Number of currently armed failpoints (relaxed; the macro's guard).
uint64_t ArmedCount();

/// Executes `name`'s armed action, if any. Returns the action's error
/// status for kError, OK otherwise (including unarmed). Hot seams call
/// this through QGP_FAILPOINT so the unarmed path never takes a lock.
Status Hit(std::string_view name);

/// Counts hits of `name` since arming (0 when never armed). For tests
/// asserting a seam actually fired.
uint64_t HitCount(std::string_view name);

}  // namespace qgp::failpoint

/// The seam macro: free when nothing is armed, otherwise runs the named
/// action and propagates its error status out of the enclosing
/// function. Use only in functions returning Status or Result<T>.
#define QGP_FAILPOINT(name)                                        \
  do {                                                             \
    if (::qgp::failpoint::ArmedCount() > 0) {                      \
      QGP_RETURN_IF_ERROR(::qgp::failpoint::Hit(name));            \
    }                                                              \
  } while (0)

/// Non-propagating variant for seams without a Status channel (e.g.
/// the raw socket writer): evaluates to the action's Status so the
/// caller can map it onto its own failure convention.
#define QGP_FAILPOINT_STATUS(name)                                 \
  (::qgp::failpoint::ArmedCount() > 0 ? ::qgp::failpoint::Hit(name) \
                                      : ::qgp::Status::Ok())

#endif  // QGP_COMMON_FAILPOINT_H_
