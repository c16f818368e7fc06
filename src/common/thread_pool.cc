#include "src/common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace metis {

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this]() { return !tasks_.empty() || stop_; });
    if (tasks_.empty()) {
      return;
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop();
    lock.unlock();
    task();
    task = nullptr;  // Destroy captures outside the lock.
    lock.lock();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  size_t shards = std::min(n, threads_.size());
  if (shards <= 1) {
    fn(0, n);
    return;
  }

  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = shards;

  size_t chunk = n / shards;
  size_t rem = n % shards;
  size_t begin = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 0; s < shards; ++s) {
      size_t end = begin + chunk + (s < rem ? 1 : 0);
      tasks_.push([&fn, begin, end, sync]() {
        fn(begin, end);
        std::lock_guard<std::mutex> sync_lock(sync->mu);
        if (--sync->remaining == 0) {
          sync->cv.notify_all();
        }
      });
      begin = end;
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&sync]() { return sync->remaining == 0; });
}

}  // namespace metis
