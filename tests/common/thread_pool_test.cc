#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace f2db {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultConcurrencyPositive) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
}

TEST(ThreadPool, ExceptionsAreContainedByPackagedTask) {
  // Library code does not throw, but tasks from tests might; the future
  // carries the exception instead of tearing down the pool.
  ThreadPool pool(1);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForSurvivesThrowingTasks) {
  // ParallelFor waits on the futures without rethrowing: a throwing
  // iteration neither kills a worker nor wedges the barrier, and the pool
  // stays usable afterwards.
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.ParallelFor(16, [&completed](std::size_t i) {
    if (i % 4 == 0) throw std::runtime_error("iteration failure");
    ++completed;
  });
  EXPECT_EQ(completed.load(), 12);
  std::atomic<int> after{0};
  pool.ParallelFor(8, [&after](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete) {
  // The engine's maintenance layer shares one pool across callers; submits
  // racing from several threads must all run exactly once.
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 200;
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures.push_back(pool.Submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) f.wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPool, ParallelForFromMultipleThreads) {
  ThreadPool pool(2);
  constexpr int kCallers = 3;
  constexpr std::size_t kWidth = 64;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kWidth, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kWidth, [&hits, c](std::size_t i) { ++hits[c][i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(std::accumulate(hits[c].begin(), hits[c].end(), 0),
              static_cast<int>(kWidth));
  }
}

TEST(ThreadPool, ShutdownWithThrowingTasksStillDrains) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter, i] {
        if (i % 5 == 0) throw std::runtime_error("boom");
        ++counter;
      });
    }
  }  // destructor drains the queue and joins despite the exceptions
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForCoversEveryIndexAroundThePoolWidth) {
  // Fewer, exactly as many and more indices than workers: each index runs
  // exactly once whatever the split between caller and helpers.
  ThreadPool pool(4);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForFromInsidePoolTask) {
  // Every worker blocks inside an outer ParallelFor while issuing an inner
  // one; the inner loops still finish because their callers claim indices.
  for (const std::size_t width : {1u, 2u}) {
    ThreadPool pool(width);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 50;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.ParallelFor(kOuter, [&](std::size_t o) {
      pool.ParallelFor(kInner, [&](std::size_t i) { ++hits[o * kInner + i]; });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "width=" << width << " slot=" << i;
    }
    // And from a plain submitted task, with the only worker busy.
    std::atomic<int> inner{0};
    pool.Submit([&] {
          pool.ParallelFor(kInner, [&inner](std::size_t) { ++inner; });
        })
        .wait();
    EXPECT_EQ(inner.load(), static_cast<int>(kInner));
  }
}

}  // namespace
}  // namespace f2db
