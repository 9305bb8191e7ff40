#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace f2db {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  Post([packaged] { (*packaged)(); });
  return future;
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  ParallelFor(n, fn, nullptr);
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             const std::function<void()>& prologue) {
  if (n == 0) {
    if (prologue) prologue();
    return;
  }
  // One loop shared by the caller and the helpers. A helper that starts
  // after every index is claimed touches only this block (it owns a
  // reference), never `fn`, which lives only until the caller returns.
  struct Loop {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;  ///< indices per claim
    std::atomic<bool> ready{false};  ///< the prologue has run
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
  };
  const std::size_t helpers = std::min(size(), n - 1);
  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->n = n;
  loop->ready.store(!prologue, std::memory_order_relaxed);
  // About eight claims per participant: cheap iterations do not contend on
  // the counter, expensive ones still balance.
  loop->grain = std::max<std::size_t>(1, n / (8 * (helpers + 1)));
  const auto drain = [](Loop& l) {
    while (!l.ready.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::size_t begin; (begin = l.next.fetch_add(l.grain)) < l.n;) {
      const std::size_t end = std::min(l.n, begin + l.grain);
      for (std::size_t i = begin; i < end; ++i) {
        // A throwing index ends only itself; the loop and the pool go on.
        try {
          (*l.fn)(i);
        } catch (...) {
        }
      }
      if (l.done.fetch_add(end - begin) + (end - begin) == l.n) {
        std::lock_guard<std::mutex> lock(l.mutex);
        l.cv.notify_all();
      }
    }
  };
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t h = 0; h < helpers; ++h) {
        queue_.emplace_back([loop, drain] { drain(*loop); });
      }
    }
    if (helpers == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }
  if (prologue) {
    try {
      prologue();
    } catch (...) {
      loop->next.store(n);  // the helpers find nothing left to claim
      loop->ready.store(true, std::memory_order_release);
      throw;
    }
    loop->ready.store(true, std::memory_order_release);
  }
  // The caller claims indices too, so a ParallelFor issued from inside a
  // pool task finishes even when every worker is busy.
  drain(*loop);
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->cv.wait(lock, [&loop, n] { return loop->done.load() == n; });
}

std::size_t ThreadPool::DefaultConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
    }
  }
}

}  // namespace f2db
