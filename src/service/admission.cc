#include "service/admission.h"

namespace qgp::service {

AdmissionController::Admit AdmissionController::Enter(uint64_t client) {
  std::unique_lock<std::mutex> lock(mu_);
  // Per-client check first, and without waiting: a client over its own
  // budget gets an immediate structured rejection instead of consuming
  // the shared backpressure budget.
  if (closed_) return Admit::kClosed;
  if (options_.max_inflight_per_client > 0 &&
      per_client_[client] >= options_.max_inflight_per_client) {
    return Admit::kRejected;
  }
  can_enter_.wait(lock, [&] {
    return closed_ || options_.max_inflight == 0 ||
           inflight_ < options_.max_inflight;
  });
  if (closed_) return Admit::kClosed;
  // Re-check after the wait: a sibling request of the same client may
  // have been admitted while this one was parked on the global bound.
  if (options_.max_inflight_per_client > 0 &&
      per_client_[client] >= options_.max_inflight_per_client) {
    return Admit::kRejected;
  }
  ++inflight_;
  ++per_client_[client];
  return Admit::kAdmitted;
}

void AdmissionController::Exit(uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_client_.find(client);
  if (it != per_client_.end() && --it->second == 0) per_client_.erase(it);
  if (inflight_ > 0) --inflight_;
  can_enter_.notify_one();
}

void AdmissionController::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  can_enter_.notify_all();
}

size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t AdmissionController::client_inflight(uint64_t client) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_client_.find(client);
  return it == per_client_.end() ? 0 : it->second;
}

}  // namespace qgp::service
