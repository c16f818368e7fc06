// Fixed-size worker pool for data-parallel sweeps.
//
// Built for the retrieval substrate's bulk work: a corpus load embeds and
// BM25-analyzes its chunks across workers, IVF training and SQ-mirror
// encoding shard their row scans, and a recall sweep splits its queries,
// one Search each. The pool is generic, though — any caller with an index
// range to split can use ParallelFor. That blocking barrier is the pool's
// one entry point: there is no fire-and-forget submit, so no task outlives
// the call that queued it.
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous shards
// whose boundaries are a pure function of (n, shard count). Callers that
// write only to disjoint per-index slots therefore produce identical results
// for every pool size, which is what lets the parity tests assert bit-equal
// search results across 1..8 threads.

#ifndef METIS_SRC_COMMON_THREAD_POOL_H_
#define METIS_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace metis {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 means "no workers", in which case every
  // ParallelFor runs inline on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(begin, end) over a partition of [0, n) into at most num_threads()
  // contiguous shards and blocks until all shards complete. With zero or one
  // worker (or n <= 1) the whole range runs inline on the calling thread.
  // fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  // A reasonable worker count for this machine.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  // Only ParallelFor enqueues, and it returns once its shards have run, so
  // the queue is empty whenever the destructor runs.
  std::queue<std::function<void()>> tasks_;
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
