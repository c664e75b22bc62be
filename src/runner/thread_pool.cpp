#include "runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mltcp::runner {

TaskPool::TaskPool(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

void TaskPool::run(std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  // Every thread, the caller included, takes indices in increasing order
  // until none are left; alone, the caller runs them all in index order.
  auto drain = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const std::size_t workers =
      std::min(static_cast<std::size_t>(threads_), count);
  {
    // jthreads join when this scope ends, on an exception path too.
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(drain);
    drain();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mltcp::runner
