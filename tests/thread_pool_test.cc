// Unit tests for the fixed-size worker pool behind the bulk loads and the
// pooled recall sweeps, and for the nullable-pool ParallelFor helper, plus
// stress coverage for the shutdown-sensitive paths: destruction right after a
// barrier, and many threads hammering ParallelFor on one shared pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace metis {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (size_t threads : {0u, 1u, 3u, 8u}) {
    ThreadPool pool(threads);
    const size_t n = 1000;
    std::vector<std::atomic<int>> touched(n);
    pool.ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        touched[i].fetch_add(1);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
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

TEST(ThreadPoolTest, ShardBoundariesAreContiguousAndDeterministic) {
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<std::pair<size_t, size_t>> shards(4, {SIZE_MAX, SIZE_MAX});
    std::atomic<size_t> next{0};
    pool.ParallelFor(10, [&](size_t begin, size_t end) {
      shards[next.fetch_add(1)] = {begin, end};
    });
    std::sort(shards.begin(), shards.end());
    // 10 over 4 shards: 3,3,2,2 — contiguous, in index order once sorted.
    EXPECT_EQ(shards[0], (std::pair<size_t, size_t>{0, 3}));
    EXPECT_EQ(shards[1], (std::pair<size_t, size_t>{3, 6}));
    EXPECT_EQ(shards[2], (std::pair<size_t, size_t>{6, 8}));
    EXPECT_EQ(shards[3], (std::pair<size_t, size_t>{8, 10}));
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
