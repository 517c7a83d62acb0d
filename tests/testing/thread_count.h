#ifndef QGP_TESTS_TESTING_THREAD_COUNT_H_
#define QGP_TESTS_TESTING_THREAD_COUNT_H_

// Thread accounting for the executor tests: how many threads this
// process has, read from /proc/self/task (Linux).

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <thread>

namespace qgp::testing {

/// Threads of this process right now.
inline size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// ThreadCount() once it has held still for 20 ms: a thread that was
/// just joined can linger in /proc/self/task for a moment.
inline size_t SettledThreadCount() {
  size_t last = ThreadCount();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = ThreadCount();
    if (now == last) return now;
    last = now;
  }
  return last;
}

}  // namespace qgp::testing

#endif  // QGP_TESTS_TESTING_THREAD_COUNT_H_
