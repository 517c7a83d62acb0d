#ifndef QGP_COMMON_CANCELLATION_H_
#define QGP_COMMON_CANCELLATION_H_

/// \file
/// Cooperative cancellation: a CancelToken combines an explicit cancel
/// flag with an optional steady-clock deadline. Long-running work
/// (matchers, candidate-space builds, fixpoint rounds) polls
/// ShouldStop() at coarse granularity — per focus, per fixpoint round,
/// per fragment — and unwinds with ToStatus() when it fires, leaving
/// every shared structure (caches, scratch arenas) in a consistent
/// state. The poll is designed to be cheap enough to sit on those
/// loops unconditionally:
///
///  * the explicit-cancel check is one relaxed atomic load;
///  * the deadline check adds one steady_clock read (tens of
///    nanoseconds — fine per focus; tighter loops stride their own
///    polls, e.g. NaiveMatcher checks every ~1024 extensions);
///  * once either condition fires it latches (sticky), so every
///    subsequent poll is the single relaxed load.
///
/// The deadline read is deliberately NOT strided inside the token: poll
/// sites are coarse by design, and a stride would make firing depend on
/// the poll count — on a small machine a run may poll only a handful of
/// times, and a deadline that is only consulted every N polls could
/// never fire at all.
///
/// Tokens chain: a token constructed with a parent also stops when the
/// parent does (service drain token → per-request deadline token). The
/// chain is followed on the slow path only (when this token has not
/// latched yet); a fired parent latches the child, restoring the
/// one-load fast path.
///
/// Thread safety: RequestCancel/ShouldStop may race freely from any
/// thread. The token must outlive every evaluation polling it.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace qgp {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token with no deadline: stops only on RequestCancel() (or when
  /// `parent` stops).
  explicit CancelToken(const CancelToken* parent = nullptr)
      : parent_(parent) {}

  /// A token that additionally stops once `deadline` passes.
  explicit CancelToken(Clock::time_point deadline,
                       const CancelToken* parent = nullptr)
      : parent_(parent), deadline_(deadline), has_deadline_(true) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests explicit cancellation. Idempotent; sticky.
  void RequestCancel() { stopped_.store(kCancelledBit, std::memory_order_relaxed); }

  /// True once the token has fired (explicit cancel, elapsed deadline,
  /// or a fired parent). Cheap enough to poll per focus / per round.
  bool ShouldStop() const {
    uint8_t state = stopped_.load(std::memory_order_relaxed);
    if (state != 0) return true;
    // Slow path: the parent chain, then the deadline clock (the
    // parent's own fast path is one load).
    if (parent_ != nullptr && parent_->ShouldStop()) {
      // Latch with the PARENT's reason so ToStatus() reports why.
      stopped_.store(parent_->stopped_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      stopped_.store(kDeadlineBit, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Synonym kept for call sites that poll outside an evaluation loop
  /// (operation entry / dispatch dequeue): documents that the caller
  /// wants a current answer, not a cached latch.
  bool ShouldStopExact() const { return ShouldStop(); }

  /// True iff the token latched because of an explicit RequestCancel
  /// (possibly inherited from a parent), as opposed to a deadline.
  bool cancelled() const {
    return stopped_.load(std::memory_order_relaxed) == kCancelledBit;
  }

  /// The Status a stopped evaluation unwinds with: kCancelled for an
  /// explicit cancel, kDeadlineExceeded for an elapsed deadline.
  /// Precondition: the token has fired (callers check ShouldStop*()).
  Status ToStatus() const {
    if (cancelled()) {
      return Status::Cancelled("evaluation cancelled");
    }
    return Status::DeadlineExceeded("evaluation deadline exceeded");
  }

 private:
  static constexpr uint8_t kCancelledBit = 1;
  static constexpr uint8_t kDeadlineBit = 2;

  const CancelToken* parent_ = nullptr;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  /// 0 = running; kCancelledBit / kDeadlineBit once latched. mutable:
  /// latching from const polls is the whole point.
  mutable std::atomic<uint8_t> stopped_{0};
};

/// Polls `token` (nullable) and returns its status out of the enclosing
/// function when it has fired — the standard per-focus / per-round
/// cancellation point.
#define QGP_CHECK_CANCEL(token)                             \
  do {                                                      \
    const ::qgp::CancelToken* _qgp_tok = (token);           \
    if (_qgp_tok != nullptr && _qgp_tok->ShouldStop())      \
      return _qgp_tok->ToStatus();                          \
  } while (0)

}  // namespace qgp

#endif  // QGP_COMMON_CANCELLATION_H_
