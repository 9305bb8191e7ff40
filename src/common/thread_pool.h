// Fixed-size worker pool used by the advisor's evaluation phase.
//
// The paper (Section IV-B1) creates models for the top-n ranked candidates
// in parallel, where n equals the number of available processors; this pool
// provides that parallelism. Tasks are arbitrary std::function<void()>;
// completion is observed through the returned std::future.

#ifndef F2DB_COMMON_THREAD_POOL_H_
#define F2DB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace f2db {

/// A fixed-size pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the future resolves when the task has run.
  std::future<void> Submit(std::function<void()> task);

  /// Runs `fn(i)` for i in [0, n) and blocks until done. The caller and at
  /// most size() helper tasks claim runs of consecutive indices from one
  /// shared counter, so a call costs O(size()) queue operations, not O(n),
  /// and a call from inside a pool task cannot deadlock. An exception
  /// thrown by `fn(i)` is swallowed and ends only index i.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// ParallelFor that wakes the helpers before the caller runs `prologue`,
  /// and runs fn(i) only after it: a helper waking while the prologue runs
  /// waits for it, spinning, instead of starting late. For a loop whose
  /// set-up is about as long as waking a sleeping thread. If the prologue
  /// throws, the exception propagates and fn is never called.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   const std::function<void()>& prologue);

  /// Number of worker threads.
  std::size_t size() const { return threads_.size(); }

  /// A sensible default pool width for this machine.
  static std::size_t DefaultConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace f2db

#endif  // F2DB_COMMON_THREAD_POOL_H_
