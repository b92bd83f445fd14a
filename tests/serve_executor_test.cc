// BatchExecutor: correct sharded execution, non-blocking backpressure
// (queue-full is kUnavailable, observed in bounded time), all-or-nothing
// admission and graceful drain on shutdown. Runs under TSan via the `serve`
// ctest label — the pool must be race-free.

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/batch_executor.h"

namespace dbs {
namespace {

using parallel::BatchExecutor;
using parallel::BatchExecutorOptions;

BatchExecutorOptions SmallPool(int workers, int64_t capacity) {
  BatchExecutorOptions options;
  options.num_workers = workers;
  options.queue_capacity = capacity;
  options.min_shard = 1;
  return options;
}

TEST(BatchExecutorTest, ParallelForCoversEveryIndexExactlyOnce) {
  BatchExecutor executor(SmallPool(4, 64));
  constexpr int64_t kTotal = 10000;
  std::vector<std::atomic<int>> hits(kTotal);
  Status status = executor.ParallelFor(kTotal, [&](int64_t begin,
                                                   int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  ASSERT_TRUE(status.ok());
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(BatchExecutorTest, ParallelForMatchesSequentialBitwise) {
  BatchExecutor executor(SmallPool(4, 64));
  constexpr int64_t kTotal = 4096;
  std::vector<double> parallel(kTotal), sequential(kTotal);
  auto work = [](int64_t i) {
    double x = static_cast<double>(i) * 0.001 + 0.1;
    return x * x * 3.0 + 1.0 / x;
  };
  for (int64_t i = 0; i < kTotal; ++i) sequential[i] = work(i);
  ASSERT_TRUE(executor
                  .ParallelFor(kTotal,
                               [&](int64_t begin, int64_t end) {
                                 for (int64_t i = begin; i < end; ++i) {
                                   parallel[i] = work(i);
                                 }
                               })
                  .ok());
  EXPECT_EQ(parallel, sequential);  // bitwise: disjoint shards, same math
}

TEST(BatchExecutorTest, ParallelForZeroOrNegativeTotalIsOk) {
  BatchExecutor executor(SmallPool(2, 8));
  EXPECT_TRUE(executor.ParallelFor(0, [](int64_t, int64_t) {}).ok());
  EXPECT_TRUE(executor.ParallelFor(-5, [](int64_t, int64_t) {}).ok());
}

TEST(BatchExecutorTest, QueueFullReturnsUnavailableWithoutBlocking) {
  BatchExecutor executor(SmallPool(1, 1));

  // Park the single worker on a promise so nothing drains.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ASSERT_TRUE(executor.TrySubmit([released] { released.wait(); }).ok());
  // Wait until the worker has dequeued the blocker.
  while (executor.queue_depth() > 0) {
    std::this_thread::yield();
  }
  // Fill the queue (capacity 1), then overflow it.
  ASSERT_TRUE(executor.TrySubmit([] {}).ok());
  auto start = std::chrono::steady_clock::now();
  Status overflow = executor.TrySubmit([] {});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  // "Never blocks forever": rejection is immediate, not a timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);

  Status parallel_for =
      executor.ParallelFor(100, [](int64_t, int64_t) {});
  EXPECT_EQ(parallel_for.code(), StatusCode::kUnavailable);

  release.set_value();
  executor.Shutdown();
}

TEST(BatchExecutorTest, TrySubmitAllIsAllOrNothing) {
  BatchExecutor executor(SmallPool(1, 4));
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ASSERT_TRUE(executor.TrySubmit([released] { released.wait(); }).ok());
  while (executor.queue_depth() > 0) {
    std::this_thread::yield();
  }

  std::atomic<int> ran{0};
  std::vector<std::function<void()>> too_many;
  for (int i = 0; i < 5; ++i) {
    too_many.push_back([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(executor.TrySubmitAll(std::move(too_many)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(executor.queue_depth(), 0);  // nothing partially admitted

  std::vector<std::function<void()>> fits;
  for (int i = 0; i < 4; ++i) {
    fits.push_back([&ran] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(executor.TrySubmitAll(std::move(fits)).ok());

  release.set_value();
  executor.Shutdown();
  EXPECT_EQ(ran.load(), 4);
}

TEST(BatchExecutorTest, ShutdownDrainsAdmittedWork) {
  std::atomic<int> ran{0};
  {
    BatchExecutor executor(SmallPool(2, 128));
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(executor.TrySubmit([&ran] { ran.fetch_add(1); }).ok());
    }
    executor.Shutdown();
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(BatchExecutorTest, SubmitAfterShutdownFails) {
  BatchExecutor executor(SmallPool(1, 8));
  executor.Shutdown();
  EXPECT_EQ(executor.TrySubmit([] {}).code(),
            StatusCode::kFailedPrecondition);
  std::vector<std::function<void()>> batch;
  batch.push_back([] {});
  EXPECT_EQ(executor.TrySubmitAll(std::move(batch)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BatchExecutorTest, ManyConcurrentParallelFors) {
  BatchExecutor executor(SmallPool(4, 1024));
  std::atomic<int64_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        Status status =
            executor.ParallelFor(1000, [&](int64_t begin, int64_t end) {
              // dbs-lint: allow(relaxed-atomic): pure counter, read after join
              total.fetch_add(end - begin, std::memory_order_relaxed);
            });
        // Backpressure is a legal outcome; silent loss is not.
        ASSERT_TRUE(status.ok() ||
                    status.code() == StatusCode::kUnavailable);
        if (!status.ok()) {
          // dbs-lint: allow(relaxed-atomic): pure counter, read after join
          total.fetch_add(1000, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4 * 20 * 1000);
}

}  // namespace
}  // namespace dbs
