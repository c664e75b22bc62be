#pragma once

#include <cstddef>
#include <functional>

namespace mltcp::runner {

/// Executor for batches of independent, index-addressed tasks. Each task is
/// a whole simulation run, so the threads share one atomic next-index: a
/// thread that finishes a run takes the lowest index nobody has started.
///
/// The pool is ephemeral: run() spawns its workers, blocks until every task
/// has executed, and joins them. A campaign is seconds-to-minutes of work,
/// so thread start-up cost is noise and there is no idle-pool lifetime to
/// manage.
class TaskPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit TaskPool(int threads = 0);

  int thread_count() const { return threads_; }

  /// Runs fn(0) .. fn(count - 1), each exactly once, across the pool's
  /// threads; blocks until all have finished. With one thread (or one task)
  /// everything runs inline on the caller, in index order — the serial
  /// reference path. If any task throws, the remaining tasks still run and
  /// the first exception caught is rethrown after the batch.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  int threads_;
};

}  // namespace mltcp::runner
