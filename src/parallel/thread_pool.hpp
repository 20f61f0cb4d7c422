// Bounded thread pool used to parallelize per-trace analysis.
//
// The paper's Python implementation distributes trace processing with Dispy;
// here a fixed pool of worker threads drains a mutex-protected task queue.
// Per-trace pipelines are independent, so a simple FIFO queue with chunked
// parallel_for scheduling gives near-linear scaling until the memory bus
// saturates (the paper reports memory as the bottleneck, §IV-E).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace mosaic::parallel {

/// Fixed-size worker pool. Tasks are void() callables; exceptions thrown by
/// a task are captured and rethrown from wait_idle()/submit futures.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 -> hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle. Rethrows the
  /// first exception captured from a task since the previous wait_idle().
  /// Further exceptions captured in the same interval are counted (see
  /// suppressed_error_count) and logged, never silently dropped.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Sentinel returned by worker_index() off a pool thread.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Index of the calling pool worker in [0, thread_count()), or kNotAWorker
  /// when called from a thread no pool owns. Stable for the thread's
  /// lifetime, which lets callers keep one scratch workspace per worker
  /// (e.g. core::analyze_preprocessed) without any synchronization.
  [[nodiscard]] static std::size_t worker_index() noexcept;

  /// Total exceptions swallowed because an earlier one was already pending
  /// rethrow. Monotonic over the pool's lifetime.
  [[nodiscard]] std::size_t suppressed_error_count() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::size_t suppressed_errors_ = 0;
};

/// Partitions [0, count) into contiguous chunks and runs `body(begin, end)`
/// on the pool. Blocks until every chunk completes; rethrows task errors.
/// `grain` caps scheduling overhead: chunks hold at least `grain` items.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace mosaic::parallel
