#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mosaic::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, WaitIdleCanBeCalledRepeatedly) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.wait_idle();  // no pending work: returns immediately
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ExceptionPropagatesFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool is usable again afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SecondExceptionCountedNotLost) {
  ThreadPool pool(4);
  // Saturate the pool with failing tasks: exactly one becomes the rethrown
  // first error; every other failure must be accounted for, not dropped.
  constexpr int kFailures = 16;
  for (int i = 0; i < kFailures; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.suppressed_error_count(),
            static_cast<std::size_t>(kFailures - 1));
}

TEST(ThreadPool, NonStdExceptionRethrownAsIs) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.submit([] { throw 42; });  // non-std::exception path
  EXPECT_THROW(pool.wait_idle(), int);
}

TEST(ParallelFor, ThrowMidBodyRethrowsWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> chunks_started{0};
  EXPECT_THROW(
      parallel_for(pool, 1000,
                   [&](std::size_t begin, std::size_t) {
                     chunks_started.fetch_add(1);
                     if (begin == 0) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
  // wait_idle inside parallel_for returned (no deadlock) and the pool
  // remains usable for follow-up work.
  std::atomic<int> after{0};
  parallel_for(pool, 10, [&](std::size_t begin, std::size_t end) {
    after.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ParallelFor, AllChunksThrowStillTerminates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t, std::size_t) {
                              throw std::runtime_error("every chunk fails");
                            },
                            /*grain=*/1),
               std::runtime_error);
  EXPECT_GT(pool.suppressed_error_count(), 0u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, touched.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, GrainLimitsChunkCount) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  parallel_for(
      pool, 100,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_GE(end - begin, 50u);
        chunks.fetch_add(1);
      },
      /*grain=*/50);
  EXPECT_EQ(chunks.load(), 2);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool(2);
  int value = 0;
  parallel_for(pool, 1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ParallelFor, ReductionMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 100000;
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, kCount, [&](std::size_t begin, std::size_t end) {
    std::int64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      local += static_cast<std::int64_t>(i);
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kCount) * (kCount - 1) / 2);
}

}  // namespace
}  // namespace mosaic::parallel
