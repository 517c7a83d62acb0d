// AdmissionController suite: the global in-flight bound blocks
// (backpressure), the per-client limit rejects immediately, Exit wakes
// blocked entrants, and Close fails everything — current and future.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "service/admission.h"

namespace qgp::service {
namespace {

using Admit = AdmissionController::Admit;

AdmissionController::Options Limits(size_t global, size_t per_client) {
  AdmissionController::Options o;
  o.max_inflight = global;
  o.max_inflight_per_client = per_client;
  return o;
}

TEST(AdmissionTest, AdmitsUpToPerClientLimitThenRejects) {
  AdmissionController a(Limits(100, 3));
  EXPECT_EQ(a.Enter(1), Admit::kAdmitted);
  EXPECT_EQ(a.Enter(1), Admit::kAdmitted);
  EXPECT_EQ(a.Enter(1), Admit::kAdmitted);
  EXPECT_EQ(a.Enter(1), Admit::kRejected);  // client 1 is at its limit
  EXPECT_EQ(a.Enter(2), Admit::kAdmitted);  // other clients keep flowing
  EXPECT_EQ(a.client_inflight(1), 3u);
  EXPECT_EQ(a.inflight(), 4u);  // the rejection took no slot

  a.Exit(1);
  EXPECT_EQ(a.Enter(1), Admit::kAdmitted);  // slot freed
  EXPECT_EQ(a.client_inflight(1), 3u);
  EXPECT_EQ(a.inflight(), 4u);
}

TEST(AdmissionTest, ZeroLimitsMeanUnbounded) {
  AdmissionController a(Limits(0, 0));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Enter(7), Admit::kAdmitted);
  EXPECT_EQ(a.inflight(), 100u);
}

TEST(AdmissionTest, GlobalBoundBlocksUntilExit) {
  AdmissionController a(Limits(2, 0));
  ASSERT_EQ(a.Enter(1), Admit::kAdmitted);
  ASSERT_EQ(a.Enter(2), Admit::kAdmitted);

  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    EXPECT_EQ(a.Enter(3), Admit::kAdmitted);  // blocks: global bound hit
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load()) << "Enter should still be parked";
  a.Exit(1);
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(a.inflight(), 2u);
}

TEST(AdmissionTest, PerClientLimitRecheckedAfterGlobalWait) {
  AdmissionController a(Limits(2, 1));
  ASSERT_EQ(a.Enter(1), Admit::kAdmitted);
  ASSERT_EQ(a.Enter(2), Admit::kAdmitted);

  // Client 3 parks on the global bound; once Exit(2) frees a slot, the
  // parked Enter and a sibling request of client 3 race for the
  // client's only per-client slot. Either interleaving is legal — the
  // parked waiter may resume first, or the sibling may slip in, in
  // which case the parked Enter must re-check the per-client limit
  // after its global wait and reject. What may never happen is both
  // admitting.
  std::atomic<int> parked_result{-1};
  std::thread parked([&] {
    parked_result.store(static_cast<int>(a.Enter(3)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a.Exit(2);
  const Admit sibling = a.Enter(3);  // immediate verdict either way:
                                     // rejected per-client if the parked
                                     // waiter already won the slot
  a.Exit(1);  // frees the global bound in case the waiter is still parked
  parked.join();
  const Admit waiter = static_cast<Admit>(parked_result.load());
  EXPECT_NE(sibling == Admit::kAdmitted, waiter == Admit::kAdmitted)
      << "exactly one of the two client-3 entries may win the slot";
  EXPECT_EQ((sibling == Admit::kRejected) + (waiter == Admit::kRejected), 1)
      << "the loser is rejected, not closed";
  EXPECT_EQ(a.client_inflight(3), 1u);
}

TEST(AdmissionTest, CloseWakesBlockedAndFailsFutureEntries) {
  AdmissionController a(Limits(1, 0));
  ASSERT_EQ(a.Enter(1), Admit::kAdmitted);
  std::atomic<int> result{-1};
  std::thread blocked([&] { result.store(static_cast<int>(a.Enter(2))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a.Close();
  blocked.join();
  EXPECT_EQ(static_cast<Admit>(result.load()), Admit::kClosed);
  EXPECT_EQ(a.Enter(3), Admit::kClosed);
}

TEST(AdmissionTest, ConcurrentEntersNeverExceedEitherBound) {
  constexpr size_t kGlobal = 4;
  constexpr size_t kPerClient = 2;
  AdmissionController a(Limits(kGlobal, kPerClient));
  std::atomic<size_t> active{0};
  std::atomic<size_t> max_active{0};
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> rejected{0};

  // 8 threads as 4 clients (2 threads per client), each looping
  // admit-work-exit; the observed concurrent maximum must respect the
  // global bound and every rejection must be a per-client overflow.
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t client = t / 2;
      for (int i = 0; i < 200; ++i) {
        switch (a.Enter(client)) {
          case Admit::kAdmitted: {
            const size_t now = active.fetch_add(1) + 1;
            size_t seen = max_active.load();
            while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
            }
            ++admitted;
            std::this_thread::yield();
            active.fetch_sub(1);
            a.Exit(client);
            break;
          }
          case Admit::kRejected:
            ++rejected;
            EXPECT_LE(a.client_inflight(client), kPerClient);
            break;
          case Admit::kClosed:
            ADD_FAILURE() << "controller was never closed";
            return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_LE(max_active.load(), kGlobal);
  EXPECT_EQ(a.inflight(), 0u) << "every admit must have exited";
  EXPECT_EQ(admitted.load() + rejected.load(), 8u * 200u)
      << "every Enter is admitted or rejected";
  EXPECT_GT(admitted.load(), 0u);
}

}  // namespace
}  // namespace qgp::service
