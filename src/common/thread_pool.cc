#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace metis {

namespace {

// ParallelFor cuts its range into about this many grains per task, so a task
// that starts late or runs slow leaves its remaining grains to the others.
constexpr size_t kGrainsPerTask = 8;

}  // namespace

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
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    RunTask(std::move(task), lock);
  }
}

void ThreadPool::RunTask(Task task, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  task.fn();
  task.fn = nullptr;  // Destroy captures outside the lock.
  lock.lock();
  // Notified under the lock: the waiter cannot see pending_ == 0, return and
  // destroy the group (and done_) before notify_all has returned.
  if (--task.group->pending_ == 0) {
    task.group->done_.notify_all();
  }
}

void ThreadPool::TaskGroup::Run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    ++pending_;
    pool_.tasks_.push_back(Task{this, std::move(task)});
  }
  pool_.cv_.notify_one();
}

void ThreadPool::TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  while (pending_ > 0) {
    auto it = std::find_if(pool_.tasks_.begin(), pool_.tasks_.end(),
                           [this](const Task& t) { return t.group == this; });
    if (it == pool_.tasks_.end()) {
      // Every remaining task is running on a worker.
      done_.wait(lock);
      continue;
    }
    Task task = std::move(*it);
    pool_.tasks_.erase(it);
    pool_.RunTask(std::move(task), lock);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  size_t tasks = std::min(n, threads_.size());
  if (tasks <= 1) {
    if (n > 0) {
      fn(0, n);
    }
    return;
  }
  size_t grain = std::max<size_t>(1, n / (tasks * kGrainsPerTask));
  std::atomic<size_t> next{0};
  auto claim = [&]() {
    for (size_t begin = next.fetch_add(grain); begin < n; begin = next.fetch_add(grain)) {
      fn(begin, std::min(n, begin + grain));
    }
  };
  TaskGroup group(*this);
  for (size_t t = 0; t < tasks; ++t) {
    group.Run(claim);
  }
  group.Wait();
}

}  // namespace metis
