// Fixed-size worker pool for data-parallel sweeps.
//
// Built for the retrieval substrate's bulk work: a corpus build embeds each
// window of chunk texts while the next is drawn, a corpus load BM25-analyzes
// its chunks across workers, IVF training and SQ-mirror encoding shard their
// row scans, and a recall sweep splits its queries, one Search each. The
// pool is generic, though.
//
// Its one fork-join mechanism is the scoped task group: TaskGroup::Run
// queues a task and TaskGroup::Wait, which the group's destructor also
// runs, returns once every task of the group has finished. A waiting caller
// runs its own group's still-queued tasks itself, so a group completes even
// while every worker is busy elsewhere, and no task outlives the scope that
// queued it. ParallelFor is a task group whose tasks claim grains of the
// index range dynamically, the caller taking part.
//
// Determinism contract: which thread runs a task, and which grains a task
// claims, depend on timing. A caller whose tasks write only their own slots
// (per-index outputs, or an order-free merge such as min or max) therefore
// gets the same result for any pool size and any claim order, which is what
// lets the parity tests assert bit-equal results across 0..8 threads.

#ifndef METIS_SRC_COMMON_THREAD_POOL_H_
#define METIS_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace metis {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 means "no workers", in which case every
  // task runs on the thread that waits for it.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // A scoped fork-join over the pool. Any thread may open groups on one
  // pool; each group's Wait waits for that group's tasks only. A group must
  // not outlive its pool, and tasks must not throw.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    // Queues `task` for the pool's workers.
    void Run(std::function<void()> task);

    // Returns once every task Run on this group has finished, running the
    // group's still-queued tasks on the calling thread meanwhile.
    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    size_t pending_ = 0;  // Queued or running tasks; guarded by pool_.mu_.
    std::condition_variable done_;
  };

  // Runs fn(begin, end) over disjoint grains covering [0, n) and returns
  // when all have run. min(n, num_threads()) tasks claim the grains in index
  // order, the caller running any task no worker took; with zero or one
  // worker the whole range runs inline as fn(0, n). fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  // A reasonable worker count for this machine.
  static size_t DefaultThreads();

 private:
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void WorkerLoop();
  // Runs a task taken off the queue with `lock` released, then retires it
  // from its group under `lock`.
  void RunTask(Task task, std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  // Every group waits for its tasks before it is destroyed, so the queue is
  // empty whenever the destructor runs.
  std::deque<Task> tasks_;
  bool stop_ = false;
};

// ThreadPool::ParallelFor on `pool`, or fn(0, n) inline when `pool` is null;
// nothing runs when n == 0. The one fan-out for callers whose pool is
// optional.
inline void ParallelFor(ThreadPool* pool, size_t n,
                        const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace metis

#endif  // METIS_SRC_COMMON_THREAD_POOL_H_
