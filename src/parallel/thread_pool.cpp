#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"

namespace mosaic::parallel {

namespace {

/// Pool-wide instruments, shared by every pool in the process (the CLI runs
/// one). Handles are resolved once; updates are relaxed atomics.
struct PoolMetrics {
  obs::Gauge& threads;
  obs::Gauge& queue_depth;
  obs::Gauge& active_workers;
  obs::Counter& tasks;
  obs::Histogram& task_ms;
  obs::Counter& suppressed_errors;

  static PoolMetrics& get() {
    static PoolMetrics instance{
        obs::Registry::global().gauge(obs::names::kPoolThreads,
                                      "worker threads in the pool"),
        obs::Registry::global().gauge(obs::names::kPoolQueueDepth,
                                      "tasks waiting in the pool queue"),
        obs::Registry::global().gauge(obs::names::kPoolActiveWorkers,
                                      "workers currently running a task"),
        obs::Registry::global().counter(obs::names::kPoolTasks,
                                        "tasks executed by the pool"),
        obs::Registry::global().histogram(obs::names::kPoolTaskMs,
                                          obs::latency_buckets_ms(),
                                          "task execution latency"),
        obs::Registry::global().counter(
            obs::names::kPoolSuppressedErrors,
            "task exceptions dropped behind a pending rethrow"),
    };
    return instance;
  }
};

/// The owning pool's index for this worker thread; kNotAWorker elsewhere.
thread_local std::size_t tls_worker_index = ThreadPool::kNotAWorker;

}  // namespace

std::size_t ThreadPool::worker_index() noexcept { return tls_worker_index; }

std::size_t ThreadPool::suppressed_error_count() const noexcept {
  const std::scoped_lock lock(mutex_);
  return suppressed_errors_;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  PoolMetrics::get().threads.set(static_cast<std::int64_t>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      tls_worker_index = i;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MOSAIC_ASSERT(task != nullptr);
  {
    const std::scoped_lock lock(mutex_);
    MOSAIC_ASSERT(!stopping_);
    queue_.push_back(std::move(task));
    PoolMetrics::get().queue_depth.set(
        static_cast<std::int64_t>(queue_.size()));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      metrics.active_workers.set(static_cast<std::int64_t>(active_));
    }
    try {
      const obs::ScopedTimerMs timer(metrics.task_ms);
      task();
      metrics.tasks.add();
    } catch (const std::exception& e) {
      metrics.tasks.add();
      const std::scoped_lock lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        ++suppressed_errors_;
        metrics.suppressed_errors.add();
        MOSAIC_LOG_WARN("thread pool: suppressing task error behind a "
                        "pending one: %s", e.what());
      }
    } catch (...) {
      metrics.tasks.add();
      const std::scoped_lock lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        ++suppressed_errors_;
        metrics.suppressed_errors.add();
        MOSAIC_LOG_WARN("thread pool: suppressing non-std task error behind "
                        "a pending one");
      }
    }
    {
      const std::scoped_lock lock(mutex_);
      --active_;
      metrics.active_workers.set(static_cast<std::int64_t>(active_));
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain) {
  if (count == 0) return;
  grain = std::max<std::size_t>(1, grain);
  // Oversubscribe chunks 4x relative to threads so stragglers rebalance,
  // but never below the grain size.
  const std::size_t target_chunks = pool.thread_count() * 4;
  const std::size_t chunk =
      std::max(grain, (count + target_chunks - 1) / target_chunks);
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    pool.submit([&body, begin, end] { body(begin, end); });
  }
  pool.wait_idle();
}

}  // namespace mosaic::parallel
