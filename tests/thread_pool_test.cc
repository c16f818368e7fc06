// Unit tests for the fixed-size worker pool behind the corpus builds, bulk
// loads and pooled recall sweeps: its task group (each task once, Wait after
// all of them, the caller running queued tasks while the workers are busy,
// groups from several threads), the dynamically claimed ParallelFor and the
// nullable-pool helper, plus stress coverage for the shutdown-sensitive
// paths: destruction right after a barrier, and many threads hammering
// ParallelFor on one shared pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace metis {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (size_t threads = 0; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> touched(n);
      pool.ParallelFor(n, [&](size_t begin, size_t end) {
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        for (size_t i = begin; i < end; ++i) {
          touched[i].fetch_add(1);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(touched[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(TaskGroupTest, EveryTaskRunsExactlyOnceAndWaitReturnsAfterAll) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
    ThreadPool pool(threads);
    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> ran(kTasks);
    std::atomic<int> finished{0};
    ThreadPool::TaskGroup group(pool);
    for (int t = 0; t < kTasks; ++t) {
      group.Run([&ran, &finished, t]() {
        std::this_thread::sleep_for(std::chrono::microseconds(t % 7 == 0 ? 200 : 0));
        ran[t].fetch_add(1);
        finished.fetch_add(1);
      });
    }
    group.Wait();
    EXPECT_EQ(finished.load(), kTasks) << "threads=" << threads;
    for (int t = 0; t < kTasks; ++t) {
      EXPECT_EQ(ran[t].load(), 1) << "threads=" << threads << " task=" << t;
    }
  }
}

TEST(TaskGroupTest, DestructorWaitsForTheGroupsTasks) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int t = 0; t < 8; ++t) {
      group.Run([&finished]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(finished.load(), 8);
}

TEST(TaskGroupTest, CompletesOnTheCallerWhileTheOnlyWorkerIsHeld) {
  // The one worker blocks on a latch inside another group's task; the
  // second group's Wait must run that group's queued tasks itself.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  ThreadPool::TaskGroup holder(pool);
  holder.Run([&]() {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&]() { return released; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return held; });
  }
  std::vector<int> out(5, 0);
  {
    ThreadPool::TaskGroup group(pool);
    for (int t = 0; t < 5; ++t) {
      group.Run([&out, t]() { out[t] = t + 1; });
    }
    group.Wait();
  }
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  holder.Wait();
}

TEST(TaskGroupTest, GroupsFromSeveralThreadsShareOnePool) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 30;
  constexpr int kTasks = 16;
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &ok, c]() {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int> slots(kTasks, 0);
        ThreadPool::TaskGroup group(pool);
        for (int t = 0; t < kTasks; ++t) {
          group.Run([&slots, t, c]() { slots[t] = c * 1000 + t; });
        }
        group.Wait();
        for (int t = 0; t < kTasks; ++t) {
          if (slots[t] != c * 1000 + t) {
            return;  // ok[c] stays 0: fail below.
          }
        }
      }
      ok[c] = 1;
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(ok[c], 1) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesSmallAndEmptyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // n == 0: nothing runs.

  std::vector<int> hits(2, 0);
  pool.ParallelFor(2, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);  // n < threads still covers everything.
}

TEST(ThreadPoolTest, NullablePoolHelperRunsInlineWithoutAPoolAndSkipsEmptyRanges) {
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(nullptr, 5, [&](size_t begin, size_t end) { calls.emplace_back(begin, end); });
  ASSERT_EQ(calls.size(), 1u);  // A null pool: one inline call over the range.
  EXPECT_EQ(calls[0], (std::pair<size_t, size_t>{0, 5}));

  int empty_calls = 0;
  ParallelFor(nullptr, 0, [&](size_t, size_t) { ++empty_calls; });
  ThreadPool pool(3);
  ParallelFor(&pool, 0, [&](size_t, size_t) { ++empty_calls; });
  EXPECT_EQ(empty_calls, 0);  // n == 0: nothing runs, with or without a pool.

  std::vector<std::atomic<int>> touched(10);
  ParallelFor(&pool, touched.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "i=" << i;  // A pool: each index once.
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  std::vector<long> data(500);
  std::iota(data.begin(), data.end(), 0);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.ParallelFor(data.size(), [&](size_t begin, size_t end) {
      long local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += data[i];
      }
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 500L * 499 / 2);
  }
}

TEST(ThreadPoolStressTest, HammerConstructDestructWithMixedWork) {
  // The shutdown race window, taken many times: every iteration runs one
  // barrier and immediately tears the pool down while its workers may still
  // be returning to wait.
  std::atomic<int> ran{0};
  int expected = 0;
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(1 + round % 4);
    pool.ParallelFor(20, [&ran](size_t begin, size_t end) {
      ran.fetch_add(static_cast<int>(end - begin));
    });
    expected += 20;
  }
  EXPECT_EQ(ran.load(), expected);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForFromManyThreads) {
  // Several external threads sharing one pool, each issuing barriers in a
  // loop — the contended enqueue/notify/wait path. Every caller must see its
  // own complete, correct result.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr size_t kN = 400;
  std::vector<long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c]() {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<long> sum{0};
        pool.ParallelFor(kN, [&sum](size_t begin, size_t end) {
          long local = 0;
          for (size_t i = begin; i < end; ++i) {
            local += static_cast<long>(i);
          }
          sum.fetch_add(local);
        });
        if (sum.load() != static_cast<long>(kN) * (kN - 1) / 2) {
          sums[c] = -1;  // Corrupted barrier; fail below.
          return;
        }
      }
      sums[c] = static_cast<long>(kN) * (kN - 1) / 2;
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c], static_cast<long>(kN) * (kN - 1) / 2) << "caller " << c;
  }
}

}  // namespace
}  // namespace metis
