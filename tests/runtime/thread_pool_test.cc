#include "bagcpd/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace bagcpd {
namespace {

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int counter = 0;
  pool.Submit([&] { ++counter; });
  // Inline execution: visible immediately, no synchronization needed.
  EXPECT_EQ(counter, 1);
  pool.ParallelForChunked(0, 10, [&](std::size_t b, std::size_t e) {
    counter += static_cast<int>(e - b);
  });
  EXPECT_EQ(counter, 11);
}

TEST(ThreadPoolTest, SubmitExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitToSameShardPreservesFifoOrder) {
  std::vector<int> order;
  std::mutex mu;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.SubmitTo(1, [&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
  }
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelForChunked(0, hits.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunkedHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int counter = 0;
  pool.ParallelForChunked(5, 5, [&](std::size_t, std::size_t) { ++counter; });
  EXPECT_EQ(counter, 0);
  std::atomic<int> one{0};
  pool.ParallelForChunked(7, 8, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 7u);
    EXPECT_EQ(e, 8u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkedPartitionsRange) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.ParallelForChunked(10, 110, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 4u);  // At most size() + 1 chunks.
  EXPECT_EQ(chunks.front().first, 10u);
  EXPECT_EQ(chunks.back().second, 110u);
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].first, chunks[c - 1].second);  // Contiguous, disjoint.
  }
}

TEST(ThreadPoolTest, ParallelForChunkedRunsConcurrentTasksToCompletion) {
  // A body that blocks until all chunks have started would deadlock if the
  // pool lost tasks; with enough threads it must complete.
  ThreadPool pool(2);
  std::atomic<long> total{0};
  pool.ParallelForChunked(0, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) total.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(total.load(), 999L * 1000L / 2);
}

TEST(ThreadPoolTest, NestedParallelForChunkedFromWorkerFallsBackInline) {
  // Regression: a parallel loop issued from inside one of the pool's own tasks
  // used to queue chunks behind the very worker that was blocking on them —
  // a deadlock whenever the inner range spilled onto the caller's shard.
  // The pool now detects re-entrancy and runs the inner loop inline; every
  // inner index must still run exactly once.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.ParallelForChunked(0, kOuter, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t outer = ob; outer < oe; ++outer) {
      pool.ParallelForChunked(0, kInner, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t inner = ib; inner < ie; ++inner) {
          hits[outer * kInner + inner].fetch_add(1);
        }
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedSubmitDetectionOnlyAppliesToOwningPool) {
  // A worker of pool A calling ParallelForChunked on pool B must still
  // parallelize
  // on B — the inline fallback is scoped to re-entrancy on the same pool.
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> ran{0};
  std::atomic<bool> outer_was_worker{false};
  std::atomic<bool> saw_inner_worker{false};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  outer.SubmitTo(0, [&] {
    outer_was_worker.store(outer.InWorkerThread() && !inner.InWorkerThread());
    inner.ParallelForChunked(0, 64, [&](std::size_t b, std::size_t e) {
      if (inner.InWorkerThread()) saw_inner_worker.store(true);
      ran.fetch_add(static_cast<int>(e - b));
    });
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(outer_was_worker.load());
  EXPECT_EQ(ran.load(), 64);
  EXPECT_TRUE(saw_inner_worker.load());
}

TEST(ThreadPoolTest, ForEachChunkWithoutPoolRunsTheRangeAsOneChunk) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  const auto record = [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);
    return Status::OK();
  };
  EXPECT_TRUE(ForEachChunk(nullptr, 3, 9, record).ok());
  EXPECT_TRUE(ForEachChunk(nullptr, 4, 4, record).ok());  // Runs no chunk.
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{3}, std::size_t{9}));
}

TEST(ThreadPoolTest, ForEachChunkReturnsTheLowestFailingIndexForAnyPool) {
  // Indices 37 and 80 fail. Each chunk stops at its first failure; the chunk
  // holding 37 sleeps first so that, on a pool, the later failure is usually
  // recorded before it. Every pool size must still return index 37's error,
  // as the one-chunk serial walk does.
  const auto body = [](std::size_t b, std::size_t e) {
    if (b <= 37 && 37 < e && b > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (std::size_t i = b; i < e; ++i) {
      if (i == 37 || i == 80) {
        return Status::Invalid("index " + std::to_string(i));
      }
    }
    return Status::OK();
  };
  const Status serial = ForEachChunk(nullptr, 0, 100, body);
  EXPECT_EQ(serial.message(), "index 37");
  for (std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ForEachChunk(&pool, 0, 100, body), serial)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace bagcpd
